//! A header-valid margin-table artifact with a corrupt record count
//! must be diagnosed as malformed and recomputed, not crash the warm
//! start (DESIGN.md §10).
//!
//! Its own test binary: [`warm_cached_tables`] reads the artifact only
//! while the process-wide margin caches are cold, so no other test may
//! warm them first.

use csa_control::plants;
use csa_experiments::artifact::Stale;
use csa_experiments::{load_margin_artifact, save_margin_artifact, warm_cached_tables};

#[test]
fn corrupt_count_is_malformed_and_recomputed() {
    let dir = std::env::temp_dir().join(format!("csa_margin_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("margin_tables.csamt");

    // The header alone is valid; the first table record claims
    // usize::MAX entries.
    save_margin_artifact(&path, &[], &[]).expect("header-only artifact");
    let first = plants::benchmark_pool().expect("benchmark pool")[0].name;
    let mut text = std::fs::read_to_string(&path).expect("artifact readable");
    text.push_str(&format!("table|{first}|{}\n", usize::MAX));
    std::fs::write(&path, &text).expect("write corrupted artifact");
    match load_margin_artifact(&path) {
        Err(Stale::Malformed(msg)) => assert!(msg.contains("end of file"), "{msg}"),
        other => panic!("corrupt count must be malformed, got {other:?}"),
    }

    std::env::set_var("CSA_MARGIN_CACHE_DIR", &dir);
    let (tables, interp) = warm_cached_tables(0);
    let (reloaded, reinterp) = load_margin_artifact(&path).expect("artifact rewritten");
    assert_eq!(reloaded.len(), tables.len());
    assert_eq!(reinterp.len(), interp.len());
    for (a, b) in reloaded.iter().zip(tables) {
        assert_eq!(a.entries.len(), b.entries.len(), "{}", a.name);
        for (ea, eb) in a.entries.iter().zip(&b.entries) {
            assert_eq!(ea.a.to_bits(), eb.a.to_bits(), "{}", a.name);
            assert_eq!(ea.b.to_bits(), eb.b.to_bits(), "{}", a.name);
        }
    }
    std::fs::remove_dir_all(dir).expect("clean up");
}
