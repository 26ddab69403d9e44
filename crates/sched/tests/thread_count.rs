//! Results do not depend on the thread count: the neighbor table,
//! fast-engine statistics and isolated tenant baselines are
//! byte-identical whether every parallel call runs inline or fans out
//! over two threads.
//!
//! The rayon shim reads the core count once per process, so a scoped
//! [`ThreadPool::install`] is the only way to run both counts in one
//! process; it also makes the two-thread path run on a one-core host.
//! The workloads span three setup chunks (about 4096 packets each), so
//! the two-thread runs really split their setup.

use rayon::ThreadPoolBuilder;
use sg_net::{
    AdaptiveRouting, EmbeddingRouting, Engine, GreedyRouting, Network, RoutingPolicy, Tenants,
    Workload,
};
use sg_obs::NullProbe;
use sg_sched::alloc::AllocPolicy;
use sg_sched::scheduler::schedule;
use sg_sched::stream::{generate, StreamConfig};

/// Packets per workload: more than two setup chunks.
const PACKETS: usize = 3 * 4096 + 17;

/// `f`'s result with `threads` threads in force for its parallel calls.
fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim always builds");
    pool.install(|| {
        assert_eq!(rayon::current_num_threads(), threads);
        f()
    })
}

/// `f` at one thread and at two, which must agree.
fn same_at_one_and_two_threads<T: Send + PartialEq>(what: &str, f: impl Fn() -> T + Sync) {
    let one = with_threads(1, &f);
    let two = with_threads(2, &f);
    assert!(one == two, "{what} differs between 1 and 2 threads");
}

#[test]
fn neighbor_table_is_thread_count_independent() {
    // Debug prints every field, the whole neighbor table included.
    same_at_one_and_two_threads("Network::new(7)", || format!("{:?}", Network::new(7)));
}

#[test]
fn fast_engine_stats_are_thread_count_independent() {
    // Built inline, so that only the runs' own parallel calls vary.
    let net = with_threads(1, || Network::new(7));
    let w = Workload::uniform_pairs(7, PACKETS, 11);
    same_at_one_and_two_threads("greedy run", || net.run(&w, &GreedyRouting));
    same_at_one_and_two_threads("adaptive run", || net.run(&w, &AdaptiveRouting));

    // Three tenants, one per policy, whose packet blocks straddle the
    // chunk boundaries.
    let parts: Vec<Workload> = (0..3)
        .map(|j| Workload::uniform_pairs(7, PACKETS / 3, 20 + j))
        .collect();
    let (mixed, owner) = Workload::compose(
        "mixed",
        7,
        &[(&parts[0], 0), (&parts[1], 0), (&parts[2], 2)],
    );
    assert!(mixed.len() > 2 * 4096);
    let policies: [&dyn RoutingPolicy; 3] = [&GreedyRouting, &EmbeddingRouting, &AdaptiveRouting];
    let tenants = Tenants::PerJob {
        policies: &policies,
        owner: &owner,
        escape: &[false; 3],
    };
    same_at_one_and_two_threads("partitioned run", || {
        net.simulate(&mixed, tenants, Engine::Fast, &mut NullProbe)
    });
}

#[test]
fn isolated_baselines_are_thread_count_independent() {
    let cfg = StreamConfig {
        greedy_pct: 25,
        adaptive_pct: 25,
        ..StreamConfig::isolated(6, 24, 5)
    };
    let jobs = generate(&cfg);
    let s = schedule(&jobs, AllocPolicy::FirstFit.build(6).as_mut());
    let run = s.tenant_run();
    let net = with_threads(1, || Network::new(6));
    same_at_one_and_two_threads("TenantRun::isolated_stats", || run.isolated_stats(&net));
}
