//! A traced job must do exactly the work of a plain one: the decorator
//! forwards every SPI call, so the engine's and the stores' deterministic
//! counters cannot tell the two apart.  A decorator that dropped a
//! defaulted method (`combiner_registry`, `run_named_at`, ...) would turn
//! off a store's optimization and show up here as a counter mismatch.

use ripple_perfbench::inputs::{self, Sizes};
use ripple_perfbench::pagerank::{Jobs, Site, SiteKind, Variant};

const SMALL: Sizes = Sizes::PageRank {
    vertices: 400,
    edges: 4_000,
    iterations: 4,
};

fn one_job(site: &Site, traced: bool, variant: Variant, idx: u64) -> Jobs {
    let inputs = inputs::pagerank(SMALL, 11);
    let mut jobs = Jobs::default();
    site.run(traced, variant, idx, &inputs, &mut jobs);
    jobs.check_reference(&inputs);
    assert_eq!(jobs.tally.failed, 0, "{:?}", jobs.tally.failures);
    jobs
}

#[test]
fn traced_jobs_do_the_same_work_on_every_backend() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fidelity");
    let _ = std::fs::remove_dir_all(&dir);
    for (kind, variants) in [
        (SiteKind::Mem, [Variant::Direct, Variant::MapReduce]),
        (SiteKind::Net, [Variant::Direct, Variant::MapReduce]),
        (SiteKind::Disk, [Variant::Durable, Variant::Direct]),
    ] {
        let site = Site::spawn(kind, &dir);
        for (i, variant) in variants.into_iter().enumerate() {
            let idx = 10 * i as u64;
            let plain = one_job(&site, false, variant, idx);
            let traced = one_job(&site, true, variant, idx + 1);
            let (p, t) = (&plain.done[0].1, &traced.done[0].1);
            assert_eq!(
                p.deterministic(),
                t.deterministic(),
                "{kind:?} {variant:?}: tracing changed the work done"
            );
            let counters = p.deterministic();
            let get = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1);
            assert!(get("core.invocations") > 0);
            match (kind, variant) {
                (SiteKind::Net, _) => assert!(get("net.rpcs") > 0 && get("net.batches") > 0),
                (SiteKind::Disk, Variant::Durable) => assert!(get("disk.fsyncs") > 0),
                _ => assert_eq!(get("net.rpcs"), 0),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
