//! What the two `serve_*` workloads share: resolving a ticket into the
//! parts of one request, and reading the stack's public counters before and
//! after a phase.

use crate::measure;
use crate::report::Record;
use crate::spans::{RequestParts, SpanLog};
use crate::stats::{self, Sample};
use nimble_core::EngineStats;
use nimble_serve::{ModelRegistry, Rejected, Router, ServeTicket, SpecializeStats};
use nimble_vm::{ArenaStats, ProfileReport};
use std::time::Instant;

/// One request, from the client's submit call to its answer.
#[derive(Debug, Clone)]
pub struct Done {
    pub sample: Sample,
    /// Submit call start, nanoseconds from the phase origin.
    pub start_ns: u64,
    /// Duration of the `submit` call: admission + shard pick + enqueue.
    pub submit_ns: u64,
    /// Submit call start to answer in hand.
    pub total_ns: u64,
    /// `Completion`'s latency, queued and execution, when it completed.
    pub engine: Option<[u64; 3]>,
    /// Refused at admission (queue full, or deadline already passed).
    pub shed: bool,
    /// Admitted, then dropped at its deadline while queued.
    pub expired: bool,
}

/// Wait for `admitted` and take the request apart. `at_ns` is what latency
/// counts from: the submit start (closed loop) or the due time (open loop).
/// `check` sees the output tensor and says whether it is right.
pub fn resolve(
    admitted: Result<ServeTicket, Rejected>,
    origin: Instant,
    at_ns: u64,
    submit_start: Instant,
    submit_end: Instant,
    tokens: u64,
    check: impl FnOnce(&nimble_tensor::Tensor) -> bool,
) -> Done {
    let mut done = Done {
        sample: Sample {
            at_ns,
            latency_ns: 0,
            tokens,
            ok: false,
            class: 0,
        },
        start_ns: (submit_start - origin).as_nanos() as u64,
        submit_ns: (submit_end - submit_start).as_nanos() as u64,
        total_ns: 0,
        engine: None,
        shed: false,
        expired: false,
    };
    let mut answered = submit_end;
    match admitted.map(ServeTicket::wait) {
        Ok(Ok(completion)) => {
            answered = Instant::now();
            let ns = |d: std::time::Duration| d.as_nanos() as u64;
            done.engine = Some([
                ns(completion.latency),
                ns(completion.queued),
                ns(completion.execution),
            ]);
            done.sample.ok = measure::output_tensor(&completion.result).is_some_and(|t| check(&t));
        }
        Ok(Err(Rejected::Expired)) => {
            answered = Instant::now();
            done.expired = true;
        }
        Ok(Err(_)) => answered = Instant::now(),
        Err(_) => done.shed = true,
    }
    let answered_ns = (answered - origin).as_nanos() as u64;
    done.sample.latency_ns = answered_ns.saturating_sub(at_ns);
    done.total_ns = answered_ns.saturating_sub(done.start_ns);
    done
}

fn median_us(values: impl Iterator<Item = u64>) -> f64 {
    stats::median(&values.map(|ns| ns as f64 / 1e3).collect::<Vec<f64>>())
}

/// The per-request layer times (medians over completed requests) and the
/// budget: `client.request` ⊃ {submit, queue, vm.run, residue, reply}.
pub fn record_parts(rec: &mut Record, done: &[Done], log: &mut SpanLog) {
    let completed: Vec<(&Done, [u64; 3])> = done
        .iter()
        .filter_map(|d| d.engine.map(|e| (d, e)))
        .collect();
    let residue = |e: &[u64; 3]| e[0].saturating_sub(e[1] + e[2]);
    let reply = |d: &Done, e: &[u64; 3]| d.total_ns.saturating_sub(d.submit_ns + e[0]);
    rec.set(
        "serve.router.submit_us",
        median_us(done.iter().map(|d| d.submit_ns)),
    );
    rec.set(
        "core.engine.queue_wait_us",
        median_us(completed.iter().map(|(_, e)| e[1])),
    );
    rec.set(
        "core.engine.exec_us",
        median_us(completed.iter().map(|(_, e)| e[2])),
    );
    rec.set(
        "core.engine.residue_us",
        median_us(completed.iter().map(|(_, e)| residue(e))),
    );
    rec.set(
        "serve.router.reply_us",
        median_us(completed.iter().map(|(d, e)| reply(d, e))),
    );
    for (request, (d, e)) in completed.iter().enumerate() {
        log.record(&RequestParts {
            request: request as u64,
            root: "client.request",
            start_ns: d.start_ns,
            total_ns: d.total_ns,
            children: &[
                ("serve.router.submit", d.submit_ns),
                ("core.engine.queue", e[1]),
                ("vm.run", e[2]),
                ("core.engine.residue", residue(e)),
                ("serve.router.reply", reply(d, e)),
            ],
        });
    }
    rec.set("budget.client_self_share", log.share("client.request"));
    rec.set("budget.submit_share", log.share("serve.router.submit"));
    rec.set("budget.queue_share", log.share("core.engine.queue"));
    rec.set("budget.vm_run_share", log.share("vm.run"));
    rec.set("budget.residue_share", log.share("core.engine.residue"));
    rec.set("budget.reply_share", log.share("serve.router.reply"));
    rec.set("budget.gap_share", log.gap_share());
}

/// The stack's public counters at one instant, summed over its models.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    engine: EngineStats,
    profile: ProfileReport,
    arena: ArenaStats,
    launches: u64,
    syncs: u64,
    copies: u64,
    copy_bytes: u64,
    submitted: u64,
    shed: u64,
    expired: u64,
    requeued: u64,
    replica_accepted: Vec<u64>,
    specialize: Option<SpecializeStats>,
}

pub fn counters(registry: &ModelRegistry, router: &Router, models: &[&str]) -> Counters {
    let mut c = Counters::default();
    let stats = router.stats();
    for name in models {
        let entry = registry.get(name).expect("model is registered");
        let shards = entry.shards();
        let e = shards.engine_stats();
        c.engine.completed += e.completed;
        c.engine.expired += e.expired;
        c.engine.batched_requests += e.batched_requests;
        c.engine.batches_formed += e.batches_formed;
        c.engine.padded_units += e.padded_units;
        c.engine.used_units += e.used_units;
        c.profile += shards.profile_report();
        c.arena.merge(&shards.arena_stats());
        let shard = shards.stats();
        c.requeued += shard.requeued;
        c.replica_accepted
            .extend(shard.replicas.iter().map(|r| r.accepted));
        if let Some(m) = stats.models.get(*name) {
            c.submitted += m.submitted();
            c.shed += m.rejected();
            c.expired += m.expired;
        }
        if let Some(spec) = entry.specializer() {
            c.specialize = Some(spec.stats());
        }
    }
    // One device set serves every model of a registry.
    let entry = registry.get(models[0]).expect("model is registered");
    let devices = entry.vm().devices();
    if devices.has_gpu() {
        c.launches = (0..devices.gpu_lanes())
            .map(|lane| devices.gpu_lane(lane).launch_count())
            .sum();
        c.syncs = devices.sync_count();
        let (h2d, d2h, bytes) = devices.copy_stats().snapshot();
        c.copies = h2d + d2h;
        c.copy_bytes = bytes;
    }
    c
}

/// What happened between two snapshots, per request where that is the
/// natural unit.
pub fn record_counters(rec: &mut Record, before: &Counters, after: &Counters) {
    let d = |pick: fn(&Counters) -> u64| pick(after).saturating_sub(pick(before)) as f64;
    let completed = d(|c| c.engine.completed).max(1.0);
    let submitted = d(|c| c.submitted).max(1.0);
    let formed = d(|c| c.engine.batches_formed);
    let batched = d(|c| c.engine.batched_requests);
    if formed > 0.0 {
        rec.set("core.engine.mean_batch_size", batched / formed);
    }
    rec.set("core.engine.batched_share", batched / completed);
    let (padded, used) = (d(|c| c.engine.padded_units), d(|c| c.engine.used_units));
    if padded + used > 0.0 {
        rec.set("core.engine.pad_waste_ratio", padded / (padded + used));
    }
    rec.set("core.engine.expired", d(|c| c.engine.expired));

    // Counts per completed request. A formed batch is one VM run for
    // several requests, so these repeat exactly only where nothing batches.
    let allocs = d(|c| c.profile.counts[5] + c.profile.counts[6] + c.profile.counts[7]);
    rec.set(
        "vm.instructions_per_req",
        d(|c| c.profile.instructions) / completed,
    );
    rec.set(
        "vm.kernel_calls_per_req",
        d(|c| c.profile.kernel_invocations) / completed,
    );
    rec.set(
        "vm.shape_func_calls_per_req",
        (d(|c| c.profile.counts[4]) - d(|c| c.profile.kernel_invocations)) / completed,
    );
    rec.set("vm.allocs_per_req", allocs / completed);

    let (hits, misses) = (d(|c| c.arena.hits), d(|c| c.arena.misses));
    if hits + misses > 0.0 {
        rec.set("vm.arena.hit_rate", hits / (hits + misses));
    }
    rec.set("vm.arena.misses_per_req", misses / completed);
    rec.set(
        "vm.arena.high_water_bytes",
        after.arena.high_water_bytes as f64,
    );
    rec.set("vm.arena.retained_bytes", after.arena.retained_bytes as f64);

    rec.set("device.launches_per_req", d(|c| c.launches) / completed);
    rec.set("device.syncs_per_req", d(|c| c.syncs) / completed);
    rec.set("device.copies_per_req", d(|c| c.copies) / completed);
    rec.set("device.copy_bytes_per_req", d(|c| c.copy_bytes) / completed);

    rec.set("serve.router.shed_share", d(|c| c.shed) / submitted);
    rec.set("serve.router.expired_share", d(|c| c.expired) / submitted);
    rec.set("serve.shard.requeued", d(|c| c.requeued));
    let accepted: Vec<f64> = after
        .replica_accepted
        .iter()
        .zip(&before.replica_accepted)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    let total: f64 = accepted.iter().sum();
    if total > 0.0 {
        let max = accepted.iter().copied().fold(0.0, f64::max);
        let min = accepted.iter().copied().fold(f64::INFINITY, f64::min);
        rec.set("serve.shard.replica_imbalance", (max - min) / total);
    }

    if let (Some(b), Some(a)) = (&before.specialize, &after.specialize) {
        let (hits, misses) = ((a.hits - b.hits) as f64, (a.misses - b.misses) as f64);
        if hits + misses > 0.0 {
            rec.set("specialize.hit_share", hits / (hits + misses));
        }
        rec.set("specialize.installs", a.installs as f64);
        rec.set("specialize.tunes", a.tunes as f64);
        rec.set("specialize.rejected", a.rejected as f64);
        rec.set("specialize.tune_ms_total", a.tune_hist.sum_seconds * 1e3);
    }
}

/// Kernel, shape-function and other shares of the VM time between two
/// snapshots taken with the profiler on. The profiler's `other_ns` counts a
/// nested `Invoke` twice, so the time of the two invoke opcodes (2 and 3)
/// is taken out of it.
pub fn record_profile_shares(rec: &mut Record, before: &Counters, after: &Counters) {
    let d = |pick: fn(&ProfileReport) -> u64| {
        pick(&after.profile).saturating_sub(pick(&before.profile)) as f64
    };
    let (kernel, shape) = (d(|p| p.kernel_ns), d(|p| p.shape_func_ns));
    let other = (d(|p| p.other_ns) - d(|p| p.op_ns[2]) - d(|p| p.op_ns[3])).max(0.0);
    let total = (kernel + shape + other).max(1.0);
    rec.set("vm.kernel_share", kernel / total);
    rec.set("vm.shape_func_share", shape / total);
    rec.set("vm.other_share", other / total);
    rec.set(
        "vm.other_ns_per_instruction",
        other / d(|p| p.instructions).max(1.0),
    );
}

/// Registration with an empty artifact cache (compile and save), then
/// again from a second registry on the same directory (load). `register`
/// builds a whole stack on the given cache directory and returns its
/// router.
pub fn probe_registry(
    rec: &mut Record,
    trace_path: &std::path::Path,
    register: impl Fn(std::path::PathBuf) -> std::sync::Arc<Router>,
) {
    let dir = trace_path
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join(format!("artifact_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for name in [
        "serve.registry.register_cold_ms",
        "serve.registry.register_cached_ms",
    ] {
        let (router, s) = measure::timed(|| register(dir.clone()));
        rec.set(name, s * 1e3);
        router.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Config;

    fn done(start_ns: u64, submit_ns: u64, engine: [u64; 3], total_ns: u64) -> Done {
        Done {
            sample: Sample {
                at_ns: start_ns,
                latency_ns: total_ns,
                tokens: 1,
                ok: true,
                class: 0,
            },
            start_ns,
            submit_ns,
            total_ns,
            engine: Some(engine),
            shed: false,
            expired: false,
        }
    }

    #[test]
    fn the_parts_of_a_request_add_up_to_what_the_client_waited() {
        let mut rec = Record::new("serve_closed", 1, 1, true, Config::default());
        let mut log = SpanLog::default();
        // submit 10 µs, engine latency 80 µs (20 queued + 50 run + 10
        // residue), answer in hand 100 µs after the submit started.
        let requests = vec![done(0, 10_000, [80_000, 20_000, 50_000], 100_000); 3];
        record_parts(&mut rec, &requests, &mut log);
        let get = |name: &str| rec.get(name).unwrap().value;
        assert_eq!(get("serve.router.submit_us"), 10.0);
        assert_eq!(get("core.engine.queue_wait_us"), 20.0);
        assert_eq!(get("core.engine.exec_us"), 50.0);
        assert_eq!(get("core.engine.residue_us"), 10.0);
        assert_eq!(get("serve.router.reply_us"), 10.0);
        assert_eq!(get("budget.gap_share"), 0.0);
        let parts = get("budget.submit_share")
            + get("budget.queue_share")
            + get("budget.vm_run_share")
            + get("budget.residue_share")
            + get("budget.reply_share")
            + get("budget.client_self_share");
        assert!((parts - 1.0).abs() < 1e-12);
        assert!((get("budget.vm_run_share") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn an_engine_clock_that_overlaps_the_submit_call_shows_as_a_gap() {
        let mut rec = Record::new("serve_closed", 1, 1, true, Config::default());
        let mut log = SpanLog::default();
        // The engine's latency clock started 5 µs before submit returned.
        let requests = vec![done(0, 10_000, [95_000, 0, 95_000], 100_000)];
        record_parts(&mut rec, &requests, &mut log);
        assert!((rec.get("budget.gap_share").unwrap().value - 0.05).abs() < 1e-12);
    }
}
