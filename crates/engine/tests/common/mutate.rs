//! The byte mutations the datagram fuzzers apply to valid traces: a bit
//! flip, a truncation, a splice with another datagram of the trace, a
//! bundle's count or length prefix rewritten, or a packet's type byte
//! swapped. Each application is described in a log line, so a failing
//! case can be read back.
#![allow(dead_code)]

use alpha_wire::bundle;
use alpha_wire::limits::MAX_BUNDLE;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The packet slices of a frame, if its bundle framing holds.
pub fn split(bytes: &[u8]) -> Option<Vec<&[u8]>> {
    let mut slices: [&[u8]; MAX_BUNDLE] = [&[]; MAX_BUNDLE];
    let n = bundle::split(bytes, &mut slices).ok()?;
    Some(slices[..n].to_vec())
}

/// Values a hostile bundle count or length prefix would claim.
const PREFIXES: [u16; 7] = [0, 1, 2, 16, 17, 0x7fff, 0xffff];

/// Apply one mutation to `bytes`, splicing from one of `others` when it
/// splices, and describe it in `log`.
pub fn mutate(bytes: &mut Vec<u8>, others: &[&[u8]], rng: &mut StdRng, log: &mut Vec<String>) {
    if bytes.is_empty() {
        bytes.push(rng.gen());
        log.push("grow from empty".to_owned());
        return;
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..5u8) {
        0 => {
            let bit = rng.gen_range(0..8u8);
            bytes[at] ^= 1 << bit;
            log.push(format!("flip bit {bit} of byte {at}"));
        }
        1 => {
            bytes.truncate(at);
            log.push(format!("truncate to {at}"));
        }
        2 => {
            let other = others.choose(rng).expect("non-empty");
            let from = rng.gen_range(0..other.len());
            bytes.splice(at.., other[from..].iter().copied());
            log.push(format!("splice at {at} from byte {from} of another"));
        }
        3 => {
            // A bundle's count byte or one of its length prefixes; a
            // bare packet's first two bytes.
            let mut prefixes = vec![0];
            if bytes[0] == bundle::BUNDLE_TAG && bytes.len() > 2 {
                let mut pos = 2;
                while pos + 2 <= bytes.len() {
                    prefixes.push(pos);
                    pos += 2 + usize::from(u16::from_be_bytes([bytes[pos], bytes[pos + 1]]));
                }
            }
            let pos = *prefixes.choose(rng).expect("non-empty");
            let value = *PREFIXES.choose(rng).expect("non-empty");
            if pos == 0 && bytes[0] == bundle::BUNDLE_TAG && bytes.len() > 1 {
                bytes[1] = value as u8;
                log.push(format!("bundle count {}", value as u8));
            } else {
                let end = (pos + 2).min(bytes.len());
                bytes[pos..end].copy_from_slice(&value.to_be_bytes()[..end - pos]);
                log.push(format!("length prefix at {pos} to {value:#x}"));
            }
        }
        _ => {
            // The type byte of one packet of the datagram.
            let starts: Vec<usize> = match split(bytes) {
                Some(slices) if bytes[0] == bundle::BUNDLE_TAG => slices
                    .iter()
                    .map(|s| s.as_ptr() as usize - bytes.as_ptr() as usize)
                    .collect(),
                _ => vec![0],
            };
            let at = starts.choose(rng).expect("non-empty") + 3;
            if at < bytes.len() {
                let to = rng.gen_range(0..=7u8);
                bytes[at] = to;
                log.push(format!("type byte at {at} to {to}"));
            }
        }
    }
}
