//! Collective communication on `S_7`, and an allreduce tenant.
//!
//! ```sh
//! cargo run --release --example collectives
//! ```
//!
//! Two experiments, all numbers asserted:
//!
//! 1. **Tree vs naive broadcast on `S_7`** (5 040 PEs). The
//!    lowest-generator-first spanning tree broadcasts in exactly
//!    `2·ecc − 1 = 17` rounds — `ecc = ⌊3·6/2⌋ = 9` contention-free
//!    one-hop phases plus 8 barrier rounds, within factor 2 of the
//!    distance lower bound. The naive root blast pushes 5 039
//!    packets through the root's 6 links and pays ≥ 840 rounds —
//!    a measured gap of two orders of magnitude.
//! 2. **Allreduce as a scheduled tenant.** An order-4 allreduce
//!    (reduce-scatter + allgather over the sub-star lattice,
//!    `4·3 = 12` barrier phases) is compiled onto the sub-star an
//!    `S_6` scheduler granted and runs concurrently with two noisy
//!    neighbors via `Schedule::tenant_run_with`: byte-isolation
//!    holds, the handoff is clean, and the payload fold on the
//!    lifted ranks equals the reference column sums.

use star_mesh_embedding::coll::{
    allreduce_case, allreduce_lattice, broadcast_naive, broadcast_tree, distance_lower_bound,
    execute, naive_root_lower_bound, seeded_matrix,
};
use star_mesh_embedding::net::{GreedyRouting, Network};
use star_mesh_embedding::sched::scheduler::schedule;
use star_mesh_embedding::sched::{AllocPolicy, JobSpec, TenantRouting, TrafficProfile};

fn broadcast_s7() {
    println!("── broadcast on S_7: dimension tree vs naive root blast ──");
    let m = 7;
    let net = Network::new(m);
    let root = 0;
    let lb = distance_lower_bound(m);
    assert_eq!(lb, 9);

    let tree = broadcast_tree(m, root);
    let chained = tree.compile(&net, &GreedyRouting);
    let stats = net.run(&chained.workload, &GreedyRouting);
    assert_eq!(stats.delivered, 5039);
    assert_eq!(stats.makespan, 2 * lb - 1, "tree broadcast: 2·ecc − 1");
    assert_eq!(
        stats.total_wait_rounds, 0,
        "every tree phase contention-free"
    );
    println!(
        "  tree : {:2} phases, {:4} packets, makespan {:3} rounds (= 2·{lb} − 1), waits {}",
        tree.phase_count(),
        stats.injected,
        stats.makespan,
        stats.total_wait_rounds
    );

    let naive = broadcast_naive(m, root);
    let chained = naive.compile(&net, &GreedyRouting);
    let nstats = net.run(&chained.workload, &GreedyRouting);
    assert_eq!(nstats.delivered, 5039);
    assert!(nstats.makespan >= naive_root_lower_bound(m));
    assert_eq!(naive_root_lower_bound(m), 840);
    println!(
        "  naive: {:2} phase , {:4} packets, makespan {:3} rounds (≥ (7!−1)/6 = 840), waits {}",
        naive.phase_count(),
        nstats.injected,
        nstats.makespan,
        nstats.total_wait_rounds
    );

    let ratio = f64::from(nstats.makespan) / f64::from(stats.makespan);
    assert!(ratio > 40.0, "the gap at n = 7 exceeds 40×");
    println!("  gap  : {ratio:.1}× — the tree wins by orders of magnitude\n");
}

fn allreduce_tenant() {
    println!("── allreduce as an S_6 tenant, next to noisy neighbors ──");
    let n = 6;
    let net = Network::new(n);
    let coll = allreduce_lattice(4);

    let mk = |id, order, traffic| JobSpec {
        id,
        order,
        arrival: 0,
        duration: 600,
        traffic,
        routing: TenantRouting::Greedy,
        escape: false,
    };
    let jobs = vec![
        // Job 0's profile is a placeholder — tenant_run_with swaps in
        // the compiled collective below.
        mk(0, 4, TrafficProfile::Transpose),
        mk(1, 4, TrafficProfile::UniformPairs { pairs: 30, seed: 7 }),
        mk(2, 5, TrafficProfile::UniformPairs { pairs: 40, seed: 8 }),
    ];
    let s = schedule(&jobs, AllocPolicy::BestFit.build(n).as_mut());
    assert_eq!(s.placements().len(), 3);
    let sub = s.placements()[0].substar.clone();

    let run =
        s.tenant_run_with(|i, p| (i == 0).then(|| coll.compile_on(&net, &p.substar).workload));
    let report = run.run_quiesce_checked(&net);
    assert_eq!(report.total.delivered, report.total.injected);
    let isolated = run.isolated_stats(&net);
    assert!(
        report.perturbed_jobs(&isolated).is_empty(),
        "confined collective tenancy is byte-isolated"
    );
    println!(
        "  allreduce tenant on sub-star {sub}: {} phases, {} packets, makespan {} rounds",
        coll.phase_count(),
        report.jobs[0].stats.delivered,
        report.jobs[0].stats.makespan
    );
    println!("  byte-isolation: all 3 tenants equal their isolated runs");

    // The payload fold on the lifted ranks: every PE of the sub-star
    // ends with the same reduced vector the reference fold predicts.
    let case = allreduce_case(4, &seeded_matrix(4, 0xa11)).lifted(&sub);
    let got = execute(&coll.lifted(&sub), &case.init).expect("payload executes");
    assert_eq!(got, case.expected);
    println!("  payload: all 24 PEs hold the reference column sums\n");
}

fn main() {
    broadcast_s7();
    allreduce_tenant();
    println!("all collective assertions hold");
}
