//! `packet-grid8`: the paper's packet model on an 8×8 grid — §3.2 routing
//! and scheduling, §3.1 job-shop scheduling on BFS shortest paths, and
//! store-and-forward list scheduling on the §3.2 routes.

use crate::spans::Tracer;
use crate::workload::{input_seed, solver, Unit, Workload};
use coflow_core::bounds::packet_lower_bound;
use coflow_core::packet::free::{route_and_schedule, PacketFreeConfig};
use coflow_core::packet::jobshop::{schedule_given_paths, PacketConfig};
use coflow_core::{Instance, PacketSchedule, Priority};
use coflow_net::paths::bfs_shortest_path;
use coflow_net::topo;
use coflow_sim::packetsim::simulate_packets;
use coflow_workloads::gen::{generate_packets, GenConfig};
use std::time::Instant;

/// Distinct instances generated per set-up. Each instance holds its own
/// copy of the topology, so a run that gets through more cycles back to
/// the first rather than growing the benchmark's own memory.
const INPUTS: usize = 1024;

/// 16 coflows × 4 unit packets with the generator's default releases.
fn gen_config(seed: u64) -> GenConfig {
    GenConfig {
        n_coflows: 16,
        width: 4,
        seed,
        ..GenConfig::default()
    }
}

pub struct Packet {
    pool: Vec<Instance>,
}

/// Runs the packet checker on `schedule` and checks completion and cost.
fn check_packets(
    u: &mut Unit,
    tr: &mut Tracer,
    label: &str,
    inst: &Instance,
    schedule: &PacketSchedule,
    cost: f64,
    lb: f64,
) {
    let tok = tr.enter("core.packet_check");
    let violations = schedule.check(inst);
    let completion = schedule.completion_times(inst);
    tr.exit(tok);
    if let Some(v) = violations.first() {
        u.fail(format!(
            "{label}: checker found {} violations, first {v:?}",
            violations.len()
        ));
    }
    u.check_finished(label, &completion);
    u.check_cost(label, cost, lb);
}

fn pipeline(inst: &Instance, i: usize, tr: &mut Tracer) -> Unit {
    let mut u = Unit::default();

    // §3.2: the LP picks routes, blocks are list-scheduled.
    let t_plan = Instant::now();
    let free_cfg = PacketFreeConfig {
        seed: i as u64,
        solver: solver(),
        ..PacketFreeConfig::default()
    };
    let free = tr.time("core.packet_free", || route_and_schedule(inst, &free_cfg));
    u.plan_ms.push(t_plan.elapsed().as_secs_f64() * 1e3);
    let free = match free {
        Ok(f) => f,
        Err(e) => {
            u.fail(format!("§3.2: lp error {e}"));
            return u;
        }
    };
    let lb = packet_lower_bound(free.lp_objective);
    check_packets(
        &mut u,
        tr,
        "§3.2",
        inst,
        &free.schedule,
        free.metrics.weighted_sum,
        lb,
    );
    u.cost_over_lb = free.metrics.weighted_sum / lb;
    u.primary_cct = free.metrics.avg_coflow_completion;
    u.count("packet.blocks", free.blocks.len() as f64);

    // §3.1 on BFS shortest paths: the baseline.
    let bfs: Option<Vec<_>> = tr.time("net.bfs_paths", || {
        inst.flows()
            .map(|(_, _, f)| bfs_shortest_path(&inst.graph, f.src, f.dst))
            .collect()
    });
    let Some(bfs) = bfs else {
        u.fail("§3.1: a packet has no path".to_string());
        return u;
    };
    let routed = inst.with_paths(&bfs);
    let given_cfg = PacketConfig {
        solver: solver(),
        ..PacketConfig::default()
    };
    match tr.time("core.packet_jobshop", || {
        schedule_given_paths(&routed, &given_cfg)
    }) {
        Ok(given) => {
            let lb = packet_lower_bound(given.lp_objective);
            check_packets(
                &mut u,
                tr,
                "§3.1",
                &routed,
                &given.schedule,
                given.metrics.weighted_sum,
                lb,
            );
            u.baseline_cct = given.metrics.avg_coflow_completion;
        }
        Err(e) => u.fail(format!("§3.1: lp error {e}")),
    }

    // Store-and-forward execution of the §3.2 routes in §3.2 completion order.
    let sim = tr.time("sim.packetsim", || {
        let done = free.schedule.completion_times(inst);
        let order = Priority::by_key(inst.flow_count(), |f| done[f]);
        simulate_packets(inst, &free.paths, &order)
    });
    check_packets(
        &mut u,
        tr,
        "packetsim",
        inst,
        &sim.schedule,
        sim.metrics.weighted_sum,
        lb,
    );
    u
}

impl Workload for Packet {
    const MIN_SAMPLES: usize = 100;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let topo = tr.time("net.topo", || topo::grid(8, 8, 1.0));
        let pool = tr.time("workloads.gen", || {
            (0..INPUTS)
                .map(|i| generate_packets(&topo, &gen_config(input_seed(seed, i))))
                .collect()
        });
        Packet { pool }
    }

    fn run_unit(&mut self, i: usize, tr: &mut Tracer) -> Unit {
        let t0 = Instant::now();
        let mut u = pipeline(&self.pool[i % self.pool.len()], i, tr);
        u.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        u.settle_instance();
        u
    }

    fn not_applicable() -> &'static [(&'static str, &'static str)] {
        &[
            ("core.lp_free.ms", "circuit-only layer"),
            ("lp.", "the packet pipelines return no SolveStats"),
            ("core.round.ms", "circuit-only layer"),
            ("core.order.ms", "circuit-only layer"),
            ("sim.fluid.ms", "circuit-only layer"),
            (
                "core.baselines.ms",
                "the §3.1 baseline is timed as core.packet_jobshop.ms",
            ),
            (
                "core.check.ms",
                "packet schedules are timed as core.packet_check.ms",
            ),
            ("engine", "offline pipeline: the online engine is not run"),
            ("sim.segments", "circuit-only count"),
        ]
    }
}
