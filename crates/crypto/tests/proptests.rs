//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use toleo_crypto::aes::Aes128;
use toleo_crypto::mac::MacKey;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// AES decrypt(encrypt(x)) == x for any key and block.
    #[test]
    fn aes_roundtrip(key in proptest::array::uniform16(any::<u8>()),
                     block in proptest::array::uniform16(any::<u8>())) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
    }

    /// AES is a permutation: distinct plaintexts map to distinct
    /// ciphertexts under the same key.
    #[test]
    fn aes_injective(key in proptest::array::uniform16(any::<u8>()),
                     a in proptest::array::uniform16(any::<u8>()),
                     b in proptest::array::uniform16(any::<u8>())) {
        prop_assume!(a != b);
        let aes = Aes128::new(&key);
        prop_assert_ne!(aes.encrypt_block(&a), aes.encrypt_block(&b));
    }

    /// MAC tags are deterministic and 56-bit.
    #[test]
    fn mac_deterministic(key in proptest::array::uniform16(any::<u8>()),
                         v in any::<u64>(), a in any::<u64>(),
                         data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let k = MacKey::new(key);
        let t1 = k.mac(v, a, &data);
        let t2 = k.mac(v, a, &data);
        prop_assert_eq!(t1, t2);
        prop_assert!(t1.as_raw() < (1 << 56));
    }
}
