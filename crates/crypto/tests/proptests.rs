//! Property-based tests for the cryptographic substrate.

use proptest::prelude::*;
use toleo_crypto::aes::Aes128;
use toleo_crypto::ide::establish_session;
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

    /// IDE delivers any payload sequence intact, in order.
    #[test]
    fn ide_delivers_streams(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..20)) {
        let (mut tx, mut rx) = establish_session([0x21u8; 32]);
        for p in &payloads {
            let flit = tx.send(p);
            prop_assert_eq!(&rx.receive(&flit).unwrap(), p);
        }
    }

    /// Any single-bit flip anywhere in an IDE flit's ciphertext is caught.
    #[test]
    fn ide_detects_any_bitflip(payload in proptest::collection::vec(any::<u8>(), 1..64),
                               bit in 0usize..8, which in any::<u16>()) {
        let (mut tx, mut rx) = establish_session([0x21u8; 32]);
        let mut flit = tx.send(&payload);
        let idx = which as usize % flit.ciphertext.len();
        flit.ciphertext[idx] ^= 1 << bit;
        prop_assert!(rx.receive(&flit).is_err());
    }
}
