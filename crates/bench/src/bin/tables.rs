//! Regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p sg-bench --bin tables -- all
//! cargo run --release -p sg-bench --bin tables -- fig7
//! cargo run --release -p sg-bench --bin tables -- dilation --max-n 8
//! ```
//!
//! Subcommands map 1:1 to the experiment ids of DESIGN.md §2.

use sg_bench::{parse_flag, print, println, Table};
use sg_coll::{
    all_to_all_naive, all_to_all_rotation, allgather_doubling, allgather_naive, allreduce_lattice,
    allreduce_naive, broadcast_naive, broadcast_tree, distance_lower_bound, naive_root_lower_bound,
    reduce_naive, reduce_scatter_halving, reduce_scatter_naive, reduce_tree, CollSchedule,
};
use sg_core::congestion::{static_congestion, verify_lemma5_all};
use sg_core::convert::{convert_d_s, mapping_table, table1_row};
use sg_core::dilation::{audit_dilation, expected_mesh_edges, lemma1_degrees};
use sg_core::embedding::star_mesh_embedding;
use sg_core::fig4::figure4_embedding;
use sg_core::lemma3::mesh_neighbor_plus;
use sg_graph::builders;
use sg_mesh::atallah::BlockMap;
use sg_mesh::dn::DnMesh;
use sg_mesh::factorization::{
    balance_bound, factorize, imbalance, optimal_dimension_sweep,
    paper_predicted_optimal_dimension, predicted_optimal_dimension,
};
use sg_mesh::shape::{MeshShape, Sign};
use sg_mesh::uniform::{
    thm7_slowdown, thm8_slowdown, thm9_approx_log2, thm9_slowdown_log2, UniformMesh,
};
use sg_net::{Engine, GreedyRouting, Network, Tenants, Workload, MAX_ORDER};
use sg_obs::{NetProbe, SchedProbe};
use sg_perm::factorial::factorial;
use sg_perm::MAX_N;
use sg_sched::job::{JobSpec, TenantRouting, TrafficProfile};
use sg_sched::scheduler::schedule as sched_schedule;
use sg_sched::stream::{generate, ArrivalPattern, StreamConfig};
use sg_sched::{schedule_with, AllocPolicy, ReleaseMode, SchedConfig, SchedPolicy};
use sg_simd::machine::MeshSimd;
use sg_simd::{EmbeddedMeshMachine, MeshMachine};
use sg_star::broadcast::{flood_schedule, lower_bound, paper_bound, verify_schedule};
use sg_star::StarGraph;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    // Every `--n`/`--max-n` range below is the one the subcommand's
    // library function documents.
    let command = format!("tables {cmd}");
    match cmd {
        // `DnMesh::new`'s range bounds table1, fig7 and lemma3.
        "table1" => table1(parse_flag(&command, &args, "--n", 6, 2..=MAX_N)),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig7" => fig7(parse_flag(&command, &args, "--n", 4, 2..=MAX_N)),
        "lemma1" => lemma1(),
        "lemma3" => lemma3(parse_flag(&command, &args, "--max-n", 7, 2..=MAX_N)),
        // `audit_dilation`, `verify_lemma5` and `static_congestion`.
        "dilation" => dilation(parse_flag(&command, &args, "--max-n", 8, 2..=11)),
        "thm6" => thm6(parse_flag(&command, &args, "--max-n", 6, 2..=9)),
        "congestion" => congestion(parse_flag(&command, &args, "--max-n", 6, 2..=8)),
        // `Network::new`; the job streams of `sched` and `obs` also
        // need the order range `3..=n` that `generate` checks.
        "sched" => sched(parse_flag(&command, &args, "--n", 6, 3..=MAX_ORDER)),
        "coll" => coll(parse_flag(&command, &args, "--max-n", 6, 2..=MAX_ORDER)),
        "obs" => obs(parse_flag(&command, &args, "--n", 6, 3..=MAX_ORDER)),
        "starprops" => starprops(),
        "thm9" => thm9(),
        "appendix" => appendix(),
        "sorting" => sorting(),
        "starvshypercube" => star_vs_hypercube(),
        "all" => {
            table1(6);
            fig2();
            fig3();
            fig4();
            fig7(4);
            lemma1();
            lemma3(7);
            dilation(8);
            thm6(6);
            congestion(6);
            sched(6);
            coll(6);
            obs(6);
            starprops();
            thm9();
            appendix();
            sorting();
            star_vs_hypercube();
        }
        _ => {
            eprintln!(
                "usage: tables <table1|fig2|fig3|fig4|fig7|lemma1|lemma3|dilation|thm6|\
                 congestion|sched|coll|obs|starprops|thm9|appendix|sorting|\
                 starvshypercube|all> [--n N] [--max-n N]"
            );
            std::process::exit(2);
        }
    }
}

fn banner(s: &str) {
    println!("\n================ {s} ================\n");
}

/// E1 — Table 1: the exchange sequence of each mesh dimension.
fn table1(n: usize) {
    banner(&format!("Table 1 — exchange sequences (n = {n})"));
    let mut t = Table::new(&["i", "sequence of exchanges"]);
    for i in 1..n {
        let seq: Vec<String> = table1_row(i)
            .iter()
            .map(|(a, b)| format!("({a} {b})"))
            .collect();
        t.row(&[i.to_string(), seq.join(" ")]);
    }
    print!("{}", t.render());
}

/// E3 — Figure 2: the S_4 topology.
fn fig2() {
    banner("Figure 2 — the star graph S_4");
    let star = StarGraph::new(4);
    let g = star.to_csr();
    println!(
        "nodes = {}, degree = {}, edges = {}, diameter = {} (formula {})\n",
        g.node_count(),
        g.regular_degree().unwrap(),
        g.edge_count(),
        sg_graph::metrics::diameter(&g).unwrap(),
        star.diameter()
    );
    let label = |v: u32| star.node_at(u64::from(v)).to_string();
    print!("{}", sg_graph::viz::to_adjacency_list(&g, label));
}

/// E4 — Figure 3: the 2×3×4 mesh.
fn fig3() {
    banner("Figure 3 — the 2*3*4 mesh");
    let shape = MeshShape::from_display(&[2, 3, 4]).unwrap();
    let g = shape.to_csr();
    println!(
        "nodes = {}, edges = {}, diameter = {}, max degree = {}\n",
        g.node_count(),
        g.edge_count(),
        shape.diameter(),
        shape.max_degree()
    );
    let label = |v: u32| shape.point_at(u64::from(v)).to_string();
    print!("{}", sg_graph::viz::to_adjacency_list(&g, label));
}

/// E5 — Figure 4: the worked embedding example.
fn fig4() {
    banner("Figure 4 — example embedding G into S");
    let e = figure4_embedding();
    let m = e.analyze().expect("valid");
    println!(
        "expansion = {}, dilation = {}, congestion = {}",
        m.expansion, m.dilation, m.congestion
    );
    println!("(paper: expansion 1, dilation 2, congestion 2)");
}

/// E2 — Figure 7: the full V(D_n) ↔ V(S_n) table.
fn fig7(n: usize) {
    banner(&format!("Figure 7 — mapping of V(D_{n}) into V(S_{n})"));
    let table = mapping_table(n);
    let mut t = Table::new(&["D_n", "S_n"]);
    for (m, s) in table {
        t.row(&[m, s]);
    }
    print!("{}", t.render());
}

/// E6 — Lemma 1: the degree obstruction to dilation 1.
fn lemma1() {
    banner("Lemma 1 — no dilation-1 embedding for n > 2");
    let mut t = Table::new(&[
        "n",
        "max mesh degree 2n-3",
        "star degree n-1",
        "dilation-1 possible",
    ]);
    for n in 2..=12usize {
        let (md, sd) = lemma1_degrees(n);
        t.row(&[
            n.to_string(),
            md.to_string(),
            sd.to_string(),
            (md <= sd).to_string(),
        ]);
    }
    print!("{}", t.render());
}

/// E8 — Lemma 3: closed-form neighbors equal convert-roundtrip.
fn lemma3(max_n: usize) {
    banner("Lemma 3 — closed-form mesh neighbors (exhaustive check)");
    let mut t = Table::new(&["n", "nodes", "neighbor pairs checked", "mismatches"]);
    for n in 2..=max_n {
        let dn = DnMesh::new(n);
        let shape = dn.shape().clone();
        let mut checked = 0u64;
        let mut mismatches = 0u64;
        for d in dn.points() {
            let pi = convert_d_s(&d);
            for k in 1..n {
                let expect = shape.neighbor(&d, k, Sign::Plus).map(|q| convert_d_s(&q));
                let got = mesh_neighbor_plus(&pi, k);
                checked += 1;
                if expect != got {
                    mismatches += 1;
                }
            }
        }
        t.rowd(&[n as u64, dn.node_count(), checked, mismatches]);
    }
    print!("{}", t.render());
}

/// E7 — Theorem 4: exhaustive dilation audit.
fn dilation(max_n: usize) {
    banner("Theorem 4 — dilation audit over every mesh edge");
    let mut t = Table::new(&[
        "n",
        "nodes",
        "mesh edges",
        "dist=1",
        "dist=3",
        "dilation",
        "expected edges",
    ]);
    for n in 2..=max_n {
        let r = audit_dilation(n);
        let h1 = r.histogram.get(1).copied().unwrap_or(0);
        let h3 = r.histogram.get(3).copied().unwrap_or(0);
        t.rowd(&[
            n as u64,
            factorial(n),
            r.edges,
            h1,
            h3,
            u64::from(r.dilation()),
            expected_mesh_edges(n),
        ]);
    }
    print!("{}", t.render());
    println!("(paper: dilation 3; distance-1 edges are exactly dimension n-1's)");
}

/// E9 — Lemma 5 / Theorem 6: conflict-free unit-route simulation.
fn thm6(max_n: usize) {
    banner("Lemma 5 / Theorem 6 — mesh unit route on the star graph");
    let mut t = Table::new(&[
        "n",
        "dim k",
        "dir",
        "messages",
        "star unit routes",
        "conflict-free",
    ]);
    for n in 2..=max_n {
        for r in verify_lemma5_all(n).expect("no conflicts") {
            t.row(&[
                n.to_string(),
                r.k.to_string(),
                if r.plus { "+" } else { "-" }.to_string(),
                r.messages.to_string(),
                r.unit_routes.to_string(),
                "yes".to_string(),
            ]);
        }
    }
    print!("{}", t.render());
    println!("(paper: at most 3 unit routes; dimension n-1 costs 1)");

    println!("\nSimulator cross-check (one + route per dimension):");
    let mut t2 = Table::new(&["n", "logical mesh routes", "star routes", "slowdown"]);
    for n in 3..=max_n {
        let mut m: EmbeddedMeshMachine<u64> = EmbeddedMeshMachine::new(n);
        m.load("B", (0..factorial(n)).collect());
        for dim in 1..n {
            m.route("B", dim, Sign::Plus);
        }
        let s = m.stats();
        t2.row(&[
            n.to_string(),
            s.logical_mesh_routes.to_string(),
            s.physical_routes.to_string(),
            format!("{:.3}", s.slowdown().unwrap()),
        ]);
    }
    print!("{}", t2.render());
}

/// Extension — static congestion of the embedding.
fn congestion(max_n: usize) {
    banner("Extension — static congestion of the embedding");
    let mut t = Table::new(&["n", "congestion", "star edges used", "star edges total"]);
    for n in 2..=max_n {
        let c = static_congestion(n);
        t.rowd(&[n as u64, c.congestion, c.edges_used, c.edges_total]);
    }
    print!("{}", t.render());
    let m = star_mesh_embedding(4).analyze().unwrap();
    println!(
        "\ngeneric analyzer (n=4): expansion {}, dilation {}, congestion {}",
        m.expansion, m.dilation, m.congestion
    );
}

/// Extension — multi-tenant sub-star scheduling (sg-sched).
fn sched(n: usize) {
    banner(&format!(
        "Extension — multi-tenant sub-star scheduling on S_{n} (sg-sched)"
    ));
    let net = Network::new(n);

    // Policy × arrival-pattern grid over one seeded confined stream.
    let mut t = Table::new(&[
        "policy",
        "pattern",
        "jobs",
        "delay avg",
        "frag avg",
        "horizon",
        "wait rounds",
        "delivered",
    ]);
    for pattern in [
        ArrivalPattern::Steady { gap: 4 },
        ArrivalPattern::Bursty { burst: 5, gap: 25 },
        ArrivalPattern::Random { mean_gap: 4 },
    ] {
        for policy in AllocPolicy::ALL {
            let cfg = StreamConfig {
                pattern,
                min_order: 3,
                max_order: n,
                duration: (40, 110),
                greedy_pct: 20,
                adaptive_pct: 10,
                ..StreamConfig::isolated(n, 15, 0x5EED)
            };
            let jobs = generate(&cfg);
            let mut alloc = policy.build(n);
            let s = sched_schedule(&jobs, alloc.as_mut());
            assert!(s.concurrent_placements_disjoint());
            let report = s.tenant_run().run(&net);
            t.row(&[
                policy.name().to_string(),
                pattern.name().to_string(),
                s.placements().len().to_string(),
                format!("{:.2}", s.mean_queueing_delay()),
                format!("{:.3}", s.mean_fragmentation()),
                s.horizon().to_string(),
                report.total.total_wait_rounds.to_string(),
                report.total.delivered.to_string(),
            ]);
        }
    }
    print!("{}", t.render());

    // The fragmentation stress: hole-blind first fit makes a later
    // full-size job queue; hole-aware policies place it instantly.
    let sweep = TrafficProfile::DimensionSweep { dim: 1, plus: true };
    let e = TenantRouting::Embedding;
    let mk = |id, order, arrival, duration| JobSpec {
        id,
        order,
        arrival,
        duration,
        traffic: sweep,
        routing: e,
        escape: false,
    };
    // One short-lived S_{n-1} + (n-2) long fillers + a small job
    // splitting the last S_{n-1}; then a probe and a big request.
    let mut jobs = vec![mk(0, n - 1, 0, 50)];
    for id in 1..=(n as u32 - 2) {
        jobs.push(mk(id, n - 1, 0, 400));
    }
    jobs.push(mk(n as u32 - 1, 3, 0, 400));
    jobs.push(mk(n as u32, 3, 55, 400));
    jobs.push(mk(n as u32 + 1, n - 1, 60, 40));
    let mut t2 = Table::new(&["policy", "big-job delay", "horizon"]);
    for policy in AllocPolicy::ALL {
        let mut alloc = policy.build(n);
        let s = sched_schedule(&jobs, alloc.as_mut());
        let big = s.placements().last().expect("all jobs place");
        t2.row(&[
            policy.name().to_string(),
            big.queueing_delay().to_string(),
            s.horizon().to_string(),
        ]);
    }
    print!("{}", t2.render());
    println!("(embedding tenants isolate byte-for-byte; placement policy alone");
    println!(" decides whether the late full-size job queues — see multi_tenant.rs)");
    println!();

    // Release-mode × scheduling-policy grid over an under-declaring
    // stream: declared release leaks in-flight flits across handoffs
    // (the audit counts them), drained release seals every handoff at
    // the cost of a longer horizon, and EASY backfill claws queueing
    // delay back under either mode. "max gap" is the worst reserved-
    // vs-actual start slip EASY's optimistic reservations suffered.
    let cfg = StreamConfig {
        pattern: ArrivalPattern::Bursty { burst: 4, gap: 12 },
        min_order: 3,
        max_order: n,
        duration: (10, 60),
        underdeclare_pct: 35,
        ..StreamConfig::isolated(n, 14, 0x5EED)
    };
    let jobs = generate(&cfg);
    let mut t3 = Table::new(&[
        "policy",
        "release",
        "horizon",
        "delay avg",
        "backfills",
        "max gap",
        "leaked flits",
    ]);
    for policy in [SchedPolicy::Fcfs, SchedPolicy::EasyBackfill] {
        for release in [ReleaseMode::Declared, ReleaseMode::Drained] {
            let cfg = SchedConfig {
                release,
                policy,
                net: Some(&net),
                ..SchedConfig::default()
            };
            let mut probe = SchedProbe::new();
            let mut alloc = AllocPolicy::FirstFit.build(n);
            let s = schedule_with(&jobs, alloc.as_mut(), &cfg, &mut probe);
            assert!(s.concurrent_placements_disjoint());
            let run = s.tenant_run();
            let report = run.run(&net);
            let leaked = run.quiescence_violations(&report).len();
            if release == ReleaseMode::Drained {
                assert_eq!(leaked, 0, "drained handoffs are clean by construction");
            }
            t3.row(&[
                policy.name().to_string(),
                release.name().to_string(),
                s.horizon().to_string(),
                format!("{:.2}", s.mean_queueing_delay()),
                s.backfills().to_string(),
                probe.max_optimism_gap().to_string(),
                leaked.to_string(),
            ]);
        }
    }
    print!("{}", t3.render());
    println!("(declared release trusts walltime lies — \"leaked flits\" counts tenant");
    println!(" packets still in flight when their sub-star was handed to a successor;");
    println!(" drained release co-simulates the drain and never hands over dirty)");
}

/// Extension — collective communication on the star interconnect
/// (sg-coll): structured algorithms vs their naive references, per
/// collective and order.
fn coll(max_m: usize) {
    banner("Extension — collectives on the S_n interconnect (sg-coll)");
    let mut t = Table::new(&[
        "collective",
        "m",
        "PEs",
        "lb",
        "phases",
        "rounds",
        "waits",
        "naive rounds",
        "naive waits",
    ]);
    for m in 3..=max_m {
        let net = Network::new(m);
        let run = |s: &CollSchedule| {
            let chained = s.compile(&net, &GreedyRouting);
            let stats = net.run(&chained.workload, &GreedyRouting);
            assert_eq!(stats.delivered, stats.injected, "collectives are lossless");
            (s.phase_count(), stats)
        };
        let lb = distance_lower_bound(m);
        let pes = factorial(m);
        let mut row = |name: &str, s: &CollSchedule, naive: &CollSchedule| {
            let (phases, stats) = run(s);
            let (_, nstats) = run(naive);
            t.row(&[
                name.to_string(),
                m.to_string(),
                pes.to_string(),
                lb.to_string(),
                phases.to_string(),
                stats.makespan.to_string(),
                stats.total_wait_rounds.to_string(),
                nstats.makespan.to_string(),
                nstats.total_wait_rounds.to_string(),
            ]);
            (stats, nstats)
        };

        // The tree collectives keep their exact cost certificate: one
        // contention-free one-hop phase per level, makespan 2·ecc − 1,
        // while the naive root blast serializes on n − 1 root links.
        let (bs, bn) = row("broadcast", &broadcast_tree(m, 0), &broadcast_naive(m, 0));
        assert_eq!(bs.makespan, 2 * lb - 1, "tree broadcast: 2·ecc − 1");
        assert_eq!(bs.total_wait_rounds, 0, "tree phases are contention-free");
        assert!(bn.makespan >= naive_root_lower_bound(m));
        let (rs, _) = row("reduce", &reduce_tree(m, 0), &reduce_naive(m, 0));
        assert_eq!(rs.makespan, 2 * lb - 1, "tree reduce: 2·ecc − 1");
        assert_eq!(rs.total_wait_rounds, 0);
        if m >= 4 {
            assert!(
                bs.makespan < bn.makespan,
                "tree broadcast must beat naive from m = 4 on"
            );
        }
        if m >= 6 {
            assert!(
                bs.makespan * 10 < bn.makespan,
                "the asymptotic gap must exceed 10x by m = 6"
            );
        }

        // The lattice family: all-pairs references explode
        // quadratically, so cap them where the table stays quick.
        row(
            "reduce-scatter",
            &reduce_scatter_halving(m),
            &reduce_scatter_naive(m),
        );
        if m <= 6 {
            let (ag, agn) = row("allgather", &allgather_doubling(m), &allgather_naive(m));
            if m >= 4 {
                assert!(
                    ag.total_wait_rounds * 10 < agn.total_wait_rounds,
                    "recursive doubling must dominate all-pairs contention"
                );
            }
            row("allreduce", &allreduce_lattice(m), &allreduce_naive(m));
        }
        if m <= 5 {
            row("all-to-all", &all_to_all_rotation(m), &all_to_all_naive(m));
        }
    }
    print!("{}", t.render());
    println!("(lb = ⌊3(m−1)/2⌋, the distance lower bound; the dimension tree hits");
    println!(" exactly 2·lb − 1 rounds with zero waits at every order — one");
    println!(" contention-free one-hop phase per level plus the barrier rounds —");
    println!(" while the naive references serialize on root links or flood all pairs)");
}

/// Extension — observability: probe dashboards and the self-profiler
/// (sg-obs).
fn obs(n: usize) {
    banner(&format!("Extension — observability on S_{n} (sg-obs)"));

    // 1. The interconnect dashboard: a NetProbe riding saturated
    // uniform traffic, with the statistics asserted byte-identical to
    // the bare run — the probe is a pure observer.
    let net = Network::new(n);
    let w = Workload::bernoulli_uniform(n, 20, 100, 0xBEEF);
    let bare = net.run(&w, &GreedyRouting);
    let mut probe = NetProbe::new(net.node_count(), net.n() - 1);
    let tenants = Tenants::One(&GreedyRouting);
    let probed = net.simulate(&w, tenants, Engine::Fast, &mut probe).total;
    assert_eq!(probed, bare, "probes never perturb the run");
    println!(
        "uniform full injection, {} packets over {} rounds:\n",
        bare.injected, bare.makespan
    );
    print!("{}", probe.render(5));

    // 2. The tenant Gantt: the scheduler's probed event stream,
    // assembled into per-job spans and drawn as a timeline.
    let cfg = StreamConfig {
        pattern: ArrivalPattern::Bursty { burst: 4, gap: 30 },
        min_order: 3,
        max_order: n,
        duration: (40, 110),
        ..StreamConfig::isolated(n, 12, 0x5EED)
    };
    let jobs = generate(&cfg);
    let mut alloc = AllocPolicy::BestFit.build(n);
    let mut sp = SchedProbe::new();
    let s = schedule_with(&jobs, alloc.as_mut(), &SchedConfig::default(), &mut sp);
    assert_eq!(sp.spans().len(), s.placements().len());
    assert_eq!(sp.horizon(), s.horizon());
    println!();
    print!("{}", sp.gantt(64));

    // 3. The fast engine's self-profile: per-phase time under the same
    // saturated run, via the monotonic clock injected at construction.
    let (stats, profile) = net.run_profiled(&w, &GreedyRouting);
    assert_eq!(stats, bare, "profiling never perturbs the run");
    println!();
    print!("{}", profile.render());
}

/// E10 — §2 star-graph properties.
fn starprops() {
    banner("S_n properties (paper §2)");
    let mut t = Table::new(&[
        "n",
        "nodes",
        "degree",
        "diam formula",
        "diam BFS",
        "kappa",
        "broadcast routes",
        "lower bnd",
        "3 n lg n",
    ]);
    for n in 2..=7usize {
        let star = StarGraph::new(n);
        let g = star.to_csr();
        let diam_bfs = sg_graph::metrics::diameter(&g).unwrap();
        let kappa = if n <= 5 {
            sg_graph::connectivity::vertex_connectivity(&g).to_string()
        } else {
            format!("{} (theory)", n - 1)
        };
        let sched = flood_schedule(&star, 0);
        let routes = verify_schedule(&star, &sched).unwrap();
        t.row(&[
            n.to_string(),
            star.node_count().to_string(),
            star.degree().to_string(),
            star.diameter().to_string(),
            diam_bfs.to_string(),
            kappa,
            routes.to_string(),
            lower_bound(n).to_string(),
            format!("{:.1}", paper_bound(n)),
        ]);
    }
    print!("{}", t.render());
    let vt = sg_graph::transitivity::is_vertex_transitive(&builders::star_graph(4));
    println!("\nvertex-transitive (exact automorphism search, S_4): {vt}");
}

/// E11 — Theorems 7–9: uniform mesh simulation bounds + measurement.
fn thm9() {
    banner("Theorems 7-9 — simulating uniform meshes");
    let mut t = Table::new(&[
        "n",
        "N=n!",
        "thm7 slowdown",
        "thm8 slowdown",
        "log2 thm9",
        "log2 O(2^n)",
    ]);
    for n in 4..=14usize {
        let full = MeshShape::new(&(2..=n).collect::<Vec<_>>()).unwrap();
        t.row(&[
            n.to_string(),
            factorial(n).to_string(),
            format!("{:.2}", thm7_slowdown(&full)),
            format!("{:.1}", thm8_slowdown(&full)),
            format!("{:.2}", thm9_slowdown_log2(n)),
            format!("{:.0}", thm9_approx_log2(n)),
        ]);
    }
    print!("{}", t.render());

    println!("\nMeasured (Atallah block map, U = nearest uniform mesh):");
    let mut t2 = Table::new(&["n", "d", "R extents", "U", "max load", "routes per U step"]);
    for (n, d) in [
        (5usize, 2usize),
        (5, 4),
        (6, 2),
        (6, 3),
        (6, 5),
        (7, 2),
        (7, 3),
    ] {
        let ext = factorize(n, d);
        let r = MeshShape::new(&ext.iter().map(|&x| x as usize).collect::<Vec<_>>()).unwrap();
        let u = UniformMesh::nearest(r.size(), d);
        let map = BlockMap::new(u, r);
        let (_, maxload) = map.load_stats();
        t2.row(&[
            n.to_string(),
            d.to_string(),
            format!("{ext:?}"),
            format!("{}^{}", u.side, d),
            maxload.to_string(),
            map.worst_route_congestion().to_string(),
        ]);
    }
    print!("{}", t2.render());
    println!("(shape claim: full-dimension simulation explodes ~2^n; low-d stays small)");
}

/// E12 — Appendix: factorizations and the optimal dimension.
fn appendix() {
    banner("Appendix — factorizing 2*3*...*n into d extents");
    let mut t = Table::new(&["n", "d", "extents l_1..l_d", "l1/ld", "bound n(1+n mod d)"]);
    for n in [6usize, 8, 10, 12] {
        for d in [1usize, 2, 3, 4] {
            if d >= n {
                continue;
            }
            let ext = factorize(n, d);
            t.row(&[
                n.to_string(),
                d.to_string(),
                format!("{ext:?}"),
                format!("{:.2}", imbalance(&ext)),
                format!("{:.1}", balance_bound(n, d)),
            ]);
        }
    }
    print!("{}", t.render());

    println!("\nOptimal simulation dimension (cost d*2^d*N^(2/d), log2):");
    let mut t2 = Table::new(&["n", "best d", "sqrt(2 log2 N)", "paper 0.5*sqrt(log2 N)"]);
    for n in 6..=14usize {
        let (_, best) = optimal_dimension_sweep(n);
        t2.row(&[
            n.to_string(),
            best.to_string(),
            format!("{:.2}", predicted_optimal_dimension(n)),
            format!("{:.2}", paper_predicted_optimal_dimension(n)),
        ]);
    }
    print!("{}", t2.render());
    println!(
        "(the Θ(sqrt(log N)) claim holds; the paper's 1/2 constant does not \
         minimize its own model — see EXPERIMENTS.md)"
    );
}

/// E13 — §5: sorting on mesh vs star.
fn sorting() {
    banner("Sorting (§5) — shearsort via the 2-D Appendix view");
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use sg_algo::grouped::{GroupedGeometry, GroupedMachine};
    use sg_algo::shearsort::{shearsort, shearsort_route_model};
    use sg_algo::util::is_sorted_snake;

    let mut t = Table::new(&[
        "n",
        "N=n!",
        "2-D shape",
        "model routes",
        "native 2-D routes",
        "grouped D_n routes",
        "star routes",
        "sorted",
    ]);
    for n in 4..=6usize {
        let geom = GroupedGeometry::appendix(n, 2);
        let vshape = geom.virtual_shape().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let keys: Vec<u64> = (0..vshape.size())
            .map(|_| rng.gen_range(0..1_000_000))
            .collect();

        // (a) native 2-D rectangular mesh of the same shape
        let mut flat: MeshMachine<u64> = MeshMachine::new(vshape.clone());
        flat.load("K", keys.clone());
        let model = shearsort_route_model(vshape.extent(1), vshape.extent(2));
        let native_routes = shearsort(&mut flat, "K");

        // (b) grouped view over a native D_n mesh
        let mut inner: MeshMachine<u64> = MeshMachine::new(geom.inner_shape().clone());
        let mut grouped = GroupedMachine::new(&mut inner, geom.clone());
        grouped.load("K", keys.clone());
        shearsort(&mut grouped, "K");
        let dn_routes = grouped.stats().physical_routes;

        // (c) grouped view over the star graph
        let mut star: EmbeddedMeshMachine<u64> = EmbeddedMeshMachine::new(n);
        let mut gstar = GroupedMachine::new(&mut star, geom);
        gstar.load("K", keys);
        shearsort(&mut gstar, "K");
        let star_routes = gstar.stats().physical_routes;
        let sorted = is_sorted_snake(&vshape, &gstar.read("K"));

        t.row(&[
            n.to_string(),
            vshape.size().to_string(),
            format!("{}x{}", vshape.extent(1), vshape.extent(2)),
            model.to_string(),
            native_routes.to_string(),
            dn_routes.to_string(),
            star_routes.to_string(),
            sorted.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "(columns grow left to right: the Appendix grouping costs a small \
         constant, the star embedding at most 3x more)"
    );
}

/// E14 — intro comparison: star vs hypercube.
fn star_vs_hypercube() {
    banner("Star graph vs hypercube (intro / `[AKER87]`)");
    let mut t = Table::new(&[
        "degree",
        "star nodes (n+1)!",
        "cube nodes 2^n",
        "star diam",
        "cube diam",
    ]);
    for deg in 2..=9usize {
        let star = StarGraph::new(deg + 1);
        t.row(&[
            deg.to_string(),
            star.node_count().to_string(),
            (1u64 << deg).to_string(),
            star.diameter().to_string(),
            deg.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(star connects far more nodes per degree with asymptotically smaller diameter)");
}
