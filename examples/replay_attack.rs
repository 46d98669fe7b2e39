//! An adversary's tour of the trust boundary: the memory attacks of the
//! paper's threat model (§2.1), against both Toleo and the client-SGX
//! Merkle-tree baseline. The CXL IDE link between host and device is the
//! paper's assumption, not its contribution: `toleo-sim` prices it
//! (bandwidth and latency) and nothing here models its cipher.
//!
//! ```sh
//! cargo run -p toleo-bench --example replay_attack
//! ```

use toleo_baselines::sgx::SgxEngine;
use toleo_core::config::ToleoConfig;
use toleo_core::engine::ProtectionEngine;
use toleo_core::protected::ProtectedMemory;
use toleo_crypto::mac::Tag56;

fn fresh_engine() -> ProtectionEngine {
    ProtectionEngine::try_new(ToleoConfig::small(), [0xd1u8; 48]).unwrap()
}

fn main() {
    println!("== Attack 1: ciphertext tampering (integrity) ==");
    let mut e = fresh_engine();
    e.write(0x40, &[7u8; 64]).unwrap();
    e.adversary().corrupt_data(0x40, 21, 0x80);
    println!(
        "   flip one ciphertext bit -> {:?}",
        e.read(0x40).unwrap_err()
    );

    println!("\n== Attack 2: MAC forgery ==");
    let mut e = fresh_engine();
    e.write(0x40, &[7u8; 64]).unwrap();
    e.adversary().forge_mac(0x40, Tag56::from_raw(0x1337));
    println!(
        "   forge the stored tag    -> {:?}",
        e.read(0x40).unwrap_err()
    );

    println!("\n== Attack 3: replay of stale (ciphertext, MAC, UV) ==");
    let mut e = fresh_engine();
    e.write(0x40, &[1u8; 64]).unwrap();
    let stale = e.adversary().capture(0x40);
    e.write(0x40, &[2u8; 64]).unwrap();
    e.adversary().replay(&stale);
    println!(
        "   replay the old capsule  -> {:?}",
        e.read(0x40).unwrap_err()
    );
    println!("   (the stealth version in Toleo moved on; a blind guess wins 1 in 2^27)");

    println!("\n== Attack 4: malicious OS reads a freed page ==");
    let mut e = fresh_engine();
    e.write(0x2000, &[9u8; 64]).unwrap();
    e.free_page(0x2000 / 4096).unwrap();
    println!(
        "   read after free+remap   -> {:?}",
        e.read(0x2000).unwrap_err()
    );

    println!("\n== Baseline: the Merkle-tree engine catches the same replay ==");
    let mut sgx = SgxEngine::new(1 << 20);
    sgx.write(0x80, &[1u8; 64]).unwrap();
    let stale = sgx.capture(0x80);
    sgx.write(0x80, &[2u8; 64]).unwrap();
    sgx.replay(&stale);
    println!(
        "   sgx replay              -> {:?}",
        sgx.read(0x80).unwrap_err()
    );
    println!(
        "   ...but paid {} tree-node accesses to get there",
        sgx.tree_accesses
    );
    println!("\nBoth designs detect everything; Toleo does it with one version access.");
}
