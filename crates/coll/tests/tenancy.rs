//! Collectives as `sg-sched` tenants: compile a collective onto the
//! sub-star the scheduler granted, inject it through
//! `Schedule::tenant_run_with`, and the existing byte-isolation
//! theorem applies unchanged — the collective's statistics next to
//! noisy disjoint neighbors equal its isolated run byte-for-byte,
//! handoffs are clean, and the payload fold still checks out on the
//! lifted ranks.

use sg_coll::{
    allreduce_case, allreduce_lattice, broadcast_case, broadcast_tree, execute, seeded_matrix,
    CollSchedule, PayloadCase,
};
use sg_net::Network;
use sg_sched::scheduler::schedule;
use sg_sched::{AllocPolicy, JobSpec, TenantRouting, TrafficProfile};

fn collective_job(id: u32, order: usize) -> JobSpec {
    JobSpec {
        id,
        order,
        arrival: 0,
        duration: 600,
        // Placeholder profile — replaced by the compiled collective
        // through the tenant_run_with override.
        traffic: TrafficProfile::Transpose,
        routing: TenantRouting::Greedy,
        escape: false,
    }
}

fn bystander_job(id: u32, order: usize) -> JobSpec {
    JobSpec {
        id,
        order,
        arrival: 0,
        duration: 600,
        traffic: TrafficProfile::UniformPairs {
            pairs: 25,
            seed: u64::from(id) ^ 0xb5,
        },
        routing: TenantRouting::Greedy,
        escape: false,
    }
}

/// One collective tenant next to two noisy neighbors on `S_6`:
/// byte-isolation, clean handoff, and payload correctness — for both
/// a rooted (broadcast) and an unrooted (allreduce) collective.
#[test]
fn collective_tenants_are_byte_isolated() {
    let n = 6;
    let net = Network::new(n);
    let cases: Vec<(CollSchedule, Box<dyn Fn() -> PayloadCase>)> = vec![
        (
            broadcast_tree(4, 2),
            Box::new(|| broadcast_case(4, 2, 0xfeed)),
        ),
        (
            allreduce_lattice(4),
            Box::new(|| allreduce_case(4, &seeded_matrix(4, 0x7e4a))),
        ),
    ];
    for (coll, make_case) in cases {
        let jobs = vec![
            collective_job(0, coll.order()),
            bystander_job(1, 4),
            bystander_job(2, 5),
        ];
        let s = schedule(&jobs, AllocPolicy::BestFit.build(n).as_mut());
        assert_eq!(s.placements().len(), 3, "all jobs placed at arrival");
        let sub = s.placements()[0].substar.clone();
        assert_eq!(sub.order(), coll.order());

        // Compile the collective onto the granted sub-star; barriers
        // are measured on the host network, where the packets run.
        let run =
            s.tenant_run_with(|i, p| (i == 0).then(|| coll.compile_on(&net, &p.substar).workload));

        // The composed run completes, hands off clean, and no tenant
        // perturbs (or is perturbed by) any other: the isolation
        // theorem, now carrying structured collective traffic.
        let report = run.run_quiesce_checked(&net);
        assert_eq!(report.total.delivered, report.total.injected);
        let isolated = run.isolated_stats(&net);
        assert!(
            report.perturbed_jobs(&isolated).is_empty(),
            "{}: collective tenancy broke byte-isolation",
            coll.name()
        );
        assert_eq!(
            report.jobs[0].stats.delivered,
            coll.total_sends() as u64,
            "{}: every collective packet delivered",
            coll.name()
        );

        // Payload correctness on the lifted ranks: the same schedule
        // the tenant executed, folded over concrete values.
        let case = make_case().lifted(&sub);
        let got = execute(&coll.lifted(&sub), &case.init).expect("payload executes");
        assert_eq!(got, case.expected, "{}: lifted fold diverged", coll.name());
    }
}
