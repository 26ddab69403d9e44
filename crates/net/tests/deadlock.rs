//! Deadlock-freedom sweep: the escape channel's headline theorem,
//! checked exhaustively where it is checkable.
//!
//! For **every** (star order `n ≤ 4`) × (pool size 1–2) × (workload
//! pattern) × (routing policy) cell, [`FlowControl::EscapeChannel`]
//! must drain the network completely — every packet delivered, zero
//! stranded, zero dropped — with both engines byte-identical. The same
//! sweep runs under [`FlowControl::CreditBased`] and records which
//! cells deadlock (strand survivors at the fixed point); that set must
//! be **non-empty**, otherwise the theorem is vacuous: an escape
//! channel that is only ever exercised where credits already suffice
//! proves nothing.
//!
//! Why the argument is a theorem and not a hope: escape residents live
//! in a bank with one slot per (PE, residual-hop class), served
//! lowest-class-first with channel priority. At any hypothetical
//! fixed point the globally minimal-class resident would need a slot
//! held by a strictly lower class — infinite descent — so some escape
//! packet always moves; adaptive heads that starve for credit divert
//! into the bank. See `FlowControl::EscapeChannel` rustdoc for the
//! full invariant.

use sg_net::{
    AdaptiveRouting, EmbeddingRouting, Engine, FlowControl, GreedyRouting, NetConfig, Network,
    RoutingPolicy, Tenants, Workload,
};
use sg_obs::NullProbe;

fn policies() -> Vec<(&'static str, Box<dyn RoutingPolicy>)> {
    vec![
        ("greedy", Box::new(GreedyRouting)),
        ("embedding", Box::new(EmbeddingRouting)),
        ("adaptive", Box::new(AdaptiveRouting)),
    ]
}

/// Saturating workload patterns sized to wedge tiny pools: sustained
/// full-rate Bernoulli traffic, dense uniform pairs, permutation
/// all-to-all, and a hot spot. (The Lemma-5 sweeps are deliberately
/// absent — they are contention-free and wedge nothing.)
fn patterns(n: usize, seed: u64) -> Vec<Workload> {
    vec![
        Workload::bernoulli_uniform(n, 40, 100, seed),
        Workload::uniform_pairs(n, 48, seed),
        Workload::random_permutation(n, seed),
        Workload::hot_spot(n, seed % 2, 80, seed),
    ]
}

fn config(fc: FlowControl, cap: u32) -> NetConfig {
    NetConfig {
        queue_capacity: Some(cap),
        flow_control: fc,
        ..NetConfig::default()
    }
}

/// The exhaustive sweep. One test so the credit-deadlock set is
/// tallied across the whole grid before the non-emptiness assert.
#[test]
fn escape_drains_every_tiny_pool_cell_where_credit_deadlocks() {
    let mut cells = 0usize;
    let mut credit_deadlocks: Vec<String> = Vec::new();
    for n in 2..=4usize {
        for cap in 1..=2u32 {
            for seed in [1u64, 7, 596] {
                for w in patterns(n, seed) {
                    for (policy_name, policy) in policies() {
                        cells += 1;
                        let cell = format!(
                            "n={n} cap={cap} seed={seed} workload={} policy={policy_name}",
                            w.name()
                        );

                        // Credit side: record (not require) deadlock.
                        let credit = Network::new(n)
                            .with_config(config(FlowControl::CreditBased, cap))
                            .run(&w, policy.as_ref());
                        if credit.stranded > 0 {
                            credit_deadlocks.push(cell.clone());
                        }

                        // Escape side: the theorem, cell by cell.
                        let net =
                            Network::new(n).with_config(config(FlowControl::EscapeChannel, cap));
                        let fast = net.run_with(&w, policy.as_ref(), Engine::Fast);
                        let reference = net.run_with(&w, policy.as_ref(), Engine::Reference);
                        assert_eq!(fast, reference, "engines diverged: {cell}");
                        assert_eq!(fast.stranded, 0, "escape deadlocked: {cell}");
                        assert_eq!(fast.dropped(), 0, "escape dropped: {cell}");
                        assert_eq!(fast.delivered, fast.injected, "incomplete drain: {cell}");
                        assert_eq!(
                            fast.delivered + fast.dropped() + fast.stranded,
                            fast.injected,
                            "conservation: {cell}"
                        );
                    }
                }
            }
        }
    }
    assert!(
        !credit_deadlocks.is_empty(),
        "vacuous theorem: CreditBased never deadlocked in {cells} cells"
    );
    // The sweep is only meaningful if deadlock is the rule at tiny
    // pools, not a fluke of one seed: n = 4 at cap 1 under sustained
    // full-rate traffic wedges for every seed and policy.
    assert!(
        credit_deadlocks.len() >= 10,
        "credit deadlock set suspiciously small ({} of {cells}): {credit_deadlocks:?}",
        credit_deadlocks.len()
    );
}

/// Diversions are real work, not a dead branch: across the sweep grid
/// the escape channel must actually be used where credits wedge.
#[test]
fn escape_channel_is_exercised_not_vacuous() {
    let mut total_diversions = 0u64;
    let mut total_escape_flits = 0u64;
    for n in 3..=4usize {
        let w = Workload::bernoulli_uniform(n, 40, 100, 1);
        let net = Network::new(n).with_config(config(FlowControl::EscapeChannel, 1));
        let stats = net.run(&w, &GreedyRouting);
        total_diversions += stats.escape_diversions;
        total_escape_flits += stats.escape_forwarded_flits;
        assert!(
            stats.escape_forwarded_flits <= stats.forwarded_flits,
            "escape flits are a subset of all flits"
        );
        assert!(
            stats.peak_escape_occupancy > 0,
            "n={n}: bank never held a resident"
        );
    }
    assert!(total_diversions > 0, "no packet ever diverted");
    assert!(
        total_escape_flits >= total_diversions,
        "diverted packets move"
    );
}

/// Opt-out honored: when no packet may escape, `EscapeChannel`
/// degrades to exactly `CreditBased` — byte-identical stats, same
/// deadlock. (Packet-level opt-in is exercised through `sg-sched`;
/// here the equivalence is pinned at the network level with the
/// all-jobs-opted-out partitioned entry point.)
#[test]
fn all_opted_out_escape_equals_credit() {
    let n = 4;
    let w = Workload::bernoulli_uniform(n, 40, 100, 596);
    let owner: Vec<u32> = vec![0; w.len()];
    let policies: [&dyn RoutingPolicy; 1] = [&GreedyRouting];
    let tenants = |escape| Tenants::PerJob {
        policies: &policies,
        owner: &owner,
        escape,
    };
    let credit = Network::new(n)
        .with_config(config(FlowControl::CreditBased, 1))
        .simulate(&w, tenants(&[true]), Engine::Fast, &mut NullProbe);
    let escape = Network::new(n)
        .with_config(config(FlowControl::EscapeChannel, 1))
        .simulate(&w, tenants(&[false]), Engine::Fast, &mut NullProbe);
    assert_eq!(
        credit.total, escape.total,
        "opted-out escape must match credit"
    );
    assert_eq!(credit.per_job, escape.per_job, "per-job stats too");
    assert!(credit.total.stranded > 0, "scenario must actually deadlock");
}
