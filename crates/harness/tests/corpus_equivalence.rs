//! The corpus cache's safety contract: campaign outputs are
//! byte-identical whether the cache is cold, warm, or absent, and a
//! damaged corpus file degrades to regeneration — never to a panic or
//! a changed result.

use hard_harness::experiments::table2;
use hard_harness::{corpus, CampaignConfig, CorpusCache};
use std::sync::Arc;

fn reduced(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        jobs,
        ..CampaignConfig::reduced(0.05, 2)
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hard-corpus-eq-{}-{name}", std::process::id()));
    p
}

/// One sequential test for everything that touches the process-global
/// cache install: tests in this binary run on parallel threads, so the
/// global must be owned by a single `#[test]`.
#[test]
fn campaign_is_bit_identical_across_cache_states() {
    let dir = temp_dir("states");
    let _ = std::fs::remove_dir_all(&dir);

    // No cache installed: the baseline materialized path.
    corpus::install(None);
    let off = table2::run(&reduced(1)).render().to_string();

    // Cold cache: everything generated, packed, stored.
    let cache = Arc::new(CorpusCache::new(dir.clone()));
    corpus::install(Some(cache.clone()));
    let cold = table2::run(&reduced(1)).render().to_string();
    let s = cache.stats();
    assert_eq!(s.hits, 0, "cold run cannot hit: {s:?}");
    assert!(s.stores > 0, "cold run must populate the corpus: {s:?}");

    // Warm, same cache object: the second run reads what the first
    // stored.
    let misses = s.misses;
    let warm = table2::run(&reduced(1)).render().to_string();
    let s = cache.stats();
    assert!(s.hits > 0, "second run must hit: {s:?}");
    assert_eq!(s.misses, misses, "second run must not miss: {s:?}");

    // Warm disk: a fresh cache object over the same directory, at a
    // different worker count for good measure.
    let reopened = Arc::new(CorpusCache::new(dir.clone()));
    corpus::install(Some(reopened.clone()));
    let warm_disk = table2::run(&reduced(4)).render().to_string();
    let s = reopened.stats();
    assert_eq!(s.misses, 0, "everything must come from disk: {s:?}");
    assert!(s.hits > 0, "{s:?}");

    corpus::install(None);
    assert_eq!(off, cold, "cold cache changed the campaign output");
    assert_eq!(off, warm, "warm hits changed the campaign output");
    assert_eq!(off, warm_disk, "disk hits changed the campaign output");

    // Damage every stored file (truncate odd entries, flip a payload
    // bit in even ones): the campaign must regenerate and still match.
    let damaged = Arc::new(CorpusCache::new(dir.clone()));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for (i, path) in files.iter().enumerate() {
        let mut bytes = std::fs::read(path).expect("corpus file");
        if i % 2 == 0 {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
        } else {
            bytes.truncate(bytes.len() / 2);
        }
        std::fs::write(path, bytes).expect("rewrite corpus file");
    }
    corpus::install(Some(damaged.clone()));
    let recovered = table2::run(&reduced(1)).render().to_string();
    corpus::install(None);
    let s = damaged.stats();
    assert_eq!(s.corrupt as usize, files.len(), "{s:?}");
    assert_eq!(s.stores as usize, files.len(), "repairs rewrite: {s:?}");
    assert_eq!(off, recovered, "corruption recovery changed the output");

    let _ = std::fs::remove_dir_all(&dir);
}
