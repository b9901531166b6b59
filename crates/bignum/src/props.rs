//! Properties of the arithmetic over random operands built from edge
//! limbs: 0, 1, 2, 2⁶⁴−1 and arbitrary ones, and numbers of all-one
//! limbs (2⁶⁴ᵏ−1), up to five limbs long — the carries, borrows and
//! normalisation (no trailing zero limb) every algorithm here must get
//! right.

use proptest::prelude::*;

use crate::BigUint;

/// One limb: an edge value or an arbitrary one.
fn limb() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1), Just(2), Just(u64::MAX), any::<u64>()]
}

/// A number of 0..=5 limbs, or 2⁶⁴ᵏ−1 for k in 1..=5.
fn number() -> impl Strategy<Value = BigUint> {
    prop_oneof![
        proptest::collection::vec(limb(), 0..=5).prop_map(|limbs| {
            let mut n = BigUint { limbs };
            n.normalize();
            n
        }),
        (1usize..=5).prop_map(|k| BigUint {
            limbs: vec![u64::MAX; k],
        }),
    ]
}

fn is_normal(n: &BigUint) -> bool {
    n.limbs.last() != Some(&0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// a = q·b + r with r < b, both normalised, and `rem` agrees.
    #[test]
    fn div_rem_reassembles(a in number(), b in number()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b, "r = {r} not below b = {b}");
        prop_assert_eq!(q.mul(&b).add(&r), a.clone());
        prop_assert!(is_normal(&q) && is_normal(&r));
        prop_assert_eq!(a.rem(&b), r);
    }

    /// Montgomery exponentiation equals division-based square and
    /// multiply for every odd modulus ≥ 3.
    #[test]
    fn montgomery_pow_matches_plain(base in number(), exp in number(), m in number()) {
        let m = if m.is_even() { m.add(&BigUint::one()) } else { m };
        prop_assume!(m.bits() >= 2);
        let exp = BigUint { limbs: exp.limbs.into_iter().take(2).collect() };
        let got = base.modpow(&exp, &m);
        prop_assert_eq!(&got, &base.modpow_plain(&exp, &m), "{base}^{exp} mod {m}");
        prop_assert!(got < m && is_normal(&got));
    }

    /// An inverse exists exactly when gcd(a, m) = 1, and then it is the
    /// one residue below m whose product with a is 1.
    #[test]
    fn mod_inverse_inverts(a in number(), m in number()) {
        prop_assume!(m.bits() >= 2);
        let coprime = a.gcd(&m).is_one();
        match a.mod_inverse(&m) {
            Some(inv) => {
                prop_assert!(coprime, "inverse of {a} mod {m} without gcd 1");
                prop_assert!(inv < m && is_normal(&inv));
                prop_assert!(a.mul_mod(&inv, &m).is_one(), "{a} * {inv} mod {m}");
            }
            None => prop_assert!(!coprime, "no inverse of {a} mod {m} with gcd 1"),
        }
    }

    /// Big-endian bytes round-trip whatever leading zeros they carry;
    /// `to_bytes_be` writes none, the padded form exactly `len` bytes.
    #[test]
    fn bytes_round_trip_with_leading_zeros(n in number(), zeros in 0usize..=17) {
        let bytes = n.to_bytes_be();
        prop_assert!(bytes.first() != Some(&0));
        prop_assert_eq!(BigUint::from_bytes_be(&bytes), n.clone());
        let mut padded = vec![0u8; zeros];
        padded.extend_from_slice(&bytes);
        prop_assert_eq!(BigUint::from_bytes_be(&padded), n.clone());
        prop_assert_eq!(n.to_bytes_be_padded(padded.len()), padded);
    }
}
