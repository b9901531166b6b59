//! Hash-operation accounting, the instrument behind Table 1.
//!
//! The paper's Table 1 states how many hash computations each role (signer,
//! verifier, relay) performs per message in each mode, and distinguishes
//! MAC computations over variable-length messages (marked `*`) from
//! fixed-length chain/tree operations. Rather than trusting our own
//! arithmetic, the Table 1 harness runs the real protocol machines and reads
//! these counters, then compares against the paper's formulas.
//!
//! Counters are thread-local so concurrently running protocol entities in
//! tests do not bleed into each other; scope measurements with [`Scope`] or
//! use [`reset`]/[`snapshot`].

use std::cell::RefCell;

use crate::Algorithm;

/// Snapshot of hash activity on the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Total hash invocations (one per `Hasher::finish`).
    pub invocations: u64,
    /// Total input bytes fed across those invocations.
    pub input_bytes: u64,
    /// Invocations whose input exceeded a few digest lengths — in the paper's
    /// terms, the `*`-marked message-sized computations as opposed to
    /// fixed-length chain/tree steps.
    pub long_input_invocations: u64,
    /// Logical MAC computations (one per [`crate::hmac::mac`] or
    /// [`crate::hmac::prefix_mac`] call). The paper's Table 1 counts a MAC
    /// as a single `1*` operation even though HMAC internally runs two
    /// hash passes.
    pub mac_invocations: u64,
    /// Raw hash invocations attributable to MAC computations (2 per HMAC,
    /// 1 per prefix MAC); lets harnesses separate MAC work from
    /// fixed-length chain/tree work exactly.
    pub mac_raw_invocations: u64,
}

impl Counts {
    /// Fixed-length (chain / tree) invocations.
    #[must_use]
    pub fn short_input_invocations(&self) -> u64 {
        self.invocations - self.long_input_invocations
    }
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            invocations: self.invocations - rhs.invocations,
            input_bytes: self.input_bytes - rhs.input_bytes,
            long_input_invocations: self.long_input_invocations - rhs.long_input_invocations,
            mac_invocations: self.mac_invocations - rhs.mac_invocations,
            mac_raw_invocations: self.mac_raw_invocations - rhs.mac_raw_invocations,
        }
    }
}

thread_local! {
    static COUNTS: RefCell<Counts> = const { RefCell::new(Counts {
        invocations: 0,
        input_bytes: 0,
        long_input_invocations: 0,
        mac_invocations: 0,
        mac_raw_invocations: 0,
    }) };
}

/// Record one finished hash invocation. Called by `Hasher::finish`.
pub(crate) fn record(alg: Algorithm, input_len: usize) {
    record_n(alg, input_len, 1);
}

/// Record `n` finished invocations of `input_len` bytes each in one counter
/// access (the chain walker reports a whole walk at once).
pub(crate) fn record_n(alg: Algorithm, input_len: usize, n: u64) {
    COUNTS.with(|c| {
        let mut c = c.borrow_mut();
        c.invocations += n;
        c.input_bytes += n * input_len as u64;
        // Chain steps hash tag+digest; tree nodes hash two or three digests;
        // HMAC's outer pass hashes block+digest. Anything beyond
        // 3*digest+block must be a message-sized input.
        if input_len > 3 * alg.digest_len() + alg.block_len() {
            c.long_input_invocations += n;
        }
    });
}

/// Record one logical MAC computation spanning `raw` hash invocations.
pub(crate) fn record_mac(raw: u64) {
    COUNTS.with(|c| {
        let mut c = c.borrow_mut();
        c.mac_invocations += 1;
        c.mac_raw_invocations += raw;
    });
}

/// Current counters for this thread.
#[must_use]
pub fn snapshot() -> Counts {
    COUNTS.with(|c| *c.borrow())
}

/// Zero this thread's counters.
pub fn reset() {
    COUNTS.with(|c| *c.borrow_mut() = Counts::default());
}

/// Measures hash activity between construction and [`Scope::finish`].
///
/// ```
/// use alpha_crypto::{counting, Algorithm};
/// let scope = counting::Scope::start();
/// let _ = Algorithm::Sha1.hash(b"one");
/// let _ = Algorithm::Sha1.hash(b"two");
/// assert_eq!(scope.finish().invocations, 2);
/// ```
pub struct Scope {
    start: Counts,
}

impl Scope {
    /// Begin measuring from the current counter values.
    #[must_use]
    pub fn start() -> Scope {
        Scope { start: snapshot() }
    }

    /// Activity since [`Scope::start`].
    #[must_use]
    pub fn finish(self) -> Counts {
        snapshot() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_invocations_and_bytes() {
        reset();
        let _ = Algorithm::Sha1.hash(b"1234567890");
        let _ = Algorithm::Sha256.hash(b"abc");
        let c = snapshot();
        assert_eq!(c.invocations, 2);
        assert_eq!(c.input_bytes, 13);
    }

    #[test]
    fn long_inputs_classified() {
        reset();
        let _ = Algorithm::Sha1.hash(&[0u8; 1000]); // message-sized
        let _ = Algorithm::Sha1.hash(&[0u8; 24]); // chain-step-sized
        let c = snapshot();
        assert_eq!(c.invocations, 2);
        assert_eq!(c.long_input_invocations, 1);
        assert_eq!(c.short_input_invocations(), 1);
    }

    #[test]
    fn scope_isolates() {
        reset();
        let _ = Algorithm::Sha1.hash(b"before");
        let scope = Scope::start();
        let _ = Algorithm::Sha1.hash(b"inside");
        let delta = scope.finish();
        assert_eq!(delta.invocations, 1);
        assert_eq!(snapshot().invocations, 2);
    }
}
