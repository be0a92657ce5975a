//! `lcrq-perfbench`: the repository benchmark. One process runs one
//! workload and prints its metrics; see README.md in this directory.
//!
//! ```text
//! lcrq-perfbench --workload <pairwise|backlog|channel-rtt|sharded-pairwise>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                [--plant <none|slow|lossy>] [--trace-dir <dir>]
//! ```
//!
//! Standard output: a `host` line, a `report` line (every metric with its
//! sample count or base), then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. Exit status 0 on a
//! clean run, 1 when the delivery check failed, 2 on bad usage or an
//! environment error (no result line then).

mod clock;
mod ladder;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use lcrq::util::metrics::Event;

use stats::{median, quantile, ratio, sorted_ns};
use workload::{Outcome, Params, Plant, WorkerOut, Workload};

/// Queue workloads use this many workers (capped at the CPU count).
const QUEUE_THREADS: usize = 2;

struct Args {
    params: Params,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut plant = Plant::None;
    let mut trace_dir = PathBuf::from(".bench_build/perfbench-trace");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=600.0).contains(&s) {
                    return Err("--seconds must be within 0.5..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                traced = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--plant" => {
                plant = Plant::parse(&val).ok_or_else(|| format!("unknown plant {val}"))?
            }
            "--trace-dir" => trace_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match workload {
        Workload::ChannelRtt => 2, // client + server
        _ => QUEUE_THREADS.min(nproc),
    };
    Ok(Args {
        params: Params {
            workload,
            seed: seed.ok_or("--seed is required")?,
            window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            traced: traced.ok_or("--trace is required")?,
            plant,
            threads,
        },
        trace_dir,
    })
}

/// A metric line: name, value, unit and what it was computed from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    basis: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, basis: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        basis,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn host_line(p: &Params) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = p.workload;
    let params = match w {
        Workload::Pairwise => "\"prefill\": 0, \"delay_ns\": 0".to_string(),
        Workload::Backlog => format!(
            "\"prefill\": {}, \"delay_ns\": 0",
            workload::BACKLOG_PREFILL
        ),
        Workload::ChannelRtt => format!("\"pause_ns\": {}", workload::RTT_PAUSE_NS),
        Workload::ShardedPairwise => {
            "\"prefill\": 0, \"delay_ns\": 0, \"shards\": 8, \"d\": 2".to_string()
        }
    };
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"allowed_cpus\": {:?}, \"cpu\": {}, \
         \"cas2_backend\": {}, \"debug_assertions\": {}}}, \"run\": {{\"workload\": {}, \
         \"subject\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \
         \"plant\": {}, \"params\": {{{params}}}}}}}",
        lcrq::util::affinity::allowed_cpus(),
        json_str(&clock::cpu_model()),
        json_str(lcrq::atomic::cas2_backend()),
        cfg!(debug_assertions),
        json_str(w.name()),
        json_str(w.subject()),
        p.seed,
        p.window.as_secs_f64(),
        p.traced as u8,
        p.threads,
        json_str(p.plant.name()),
    )
}

/// A percentile of `pick`'s samples, taken per episode; returns the median
/// over episodes and its basis. An episode hit by a host hiccup then moves
/// the result no more than any other outlier.
fn episode_percentile(
    o: &Outcome,
    q: f64,
    pick: impl Fn(&WorkerOut) -> &stats::Reservoir,
) -> (f64, String) {
    let per: Vec<f64> = o
        .episodes
        .iter()
        .map(|e| quantile(&sorted_ns(e.workers.iter().map(&pick)), q))
        .collect();
    let kept: usize = o.workers().map(|w| pick(w).values().len()).sum();
    let seen = stats::seen(o.workers().map(&pick));
    let basis = format!(
        "median over {} episodes of per-episode p{}; {kept} samples kept of {seen} timed",
        per.len(),
        q * 100.0
    );
    (median(&per), basis)
}

/// End-to-end metrics of an untraced run.
fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let slices = o.slice_mops(false);
    let (op50, op50_b) = episode_percentile(o, 0.5, |w| &w.op);
    let (op99, op99_b) = episode_percentile(o, 0.99, |w| &w.op);
    let (rtt50, rtt50_b) = episode_percentile(o, 0.5, |w| &w.rtt);
    let (rtt99, rtt99_b) = episode_percentile(o, 0.99, |w| &w.rtt);
    let cpu: Vec<f64> = o
        .episodes
        .iter()
        .map(|e| {
            let ns: u64 = e.workers.iter().map(|w| w.window_cpu_ns).sum();
            let calls: u64 = e.workers.iter().map(|w| w.window_calls).sum();
            ns as f64 / calls.max(1) as f64
        })
        .collect();
    let cpu_ns: u64 = o.workers().map(|w| w.window_cpu_ns).sum();
    vec![
        metric(
            "throughput_mops",
            median(&slices),
            "Mops/s",
            format!("median of {} slices", slices.len()),
        ),
        metric("op_p50_ns", op50, "ns", op50_b),
        metric("op_p99_ns", op99, "ns", op99_b),
        metric("rtt_p50_ns", rtt50, "ns", rtt50_b),
        metric("rtt_p99_ns", rtt99, "ns", rtt99_b),
        metric(
            "cpu_ns_per_op",
            median(&cpu),
            "ns",
            format!(
                "median over {} episodes of worker CPU time per call; {} calls, {cpu_ns} ns in all",
                cpu.len(),
                o.workers().map(|w| w.window_calls).sum::<u64>()
            ),
        ),
        metric(
            "setup_s",
            median(&o.setup_s),
            "s",
            format!("median of {} set-ups", o.setup_s.len()),
        ),
        metric(
            "rss_peak_mib",
            o.rss_peak_mib,
            "MiB",
            "VmHWM of this process when the workers stopped".into(),
        ),
    ]
}

/// Per-layer metrics of a traced run: counter deltas over the workload's
/// window, the layer ladder and the micro timings.
fn per_layer(p: &Params, args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let total = p.window;
    let is_rtt = p.workload == Workload::ChannelRtt;
    let wp = Params {
        window: total.mul_f64(if is_rtt { 0.45 } else { 0.35 }),
        ..p.clone()
    };
    let outcome = workload::run(&wp)?;
    let mut rung_spans = trace::SpanLog::new(64);
    let lad = ladder::ladder(
        QUEUE_THREADS.min(p.threads.max(1)),
        total.mul_f64(0.4),
        p.seed,
        &mut rung_spans,
    )?;
    let micro = ladder::micros(total.mul_f64(0.15), &mut rung_spans);
    // The channel and parker metrics need blocking round trips: on the
    // queue workloads a short traced `channel-rtt` episode supplies them.
    let probe = if is_rtt {
        None
    } else {
        Some(workload::run(&Params {
            workload: Workload::ChannelRtt,
            window: total.mul_f64(0.1),
            threads: 2,
            plant: Plant::None,
            ..p.clone()
        })?)
    };
    let rtt = probe.as_ref().unwrap_or(&outcome);

    let d = &outcome.counters;
    let calls = outcome.window_calls().max(1);
    let base = format!("base={calls} calls");
    let kbase = format!("base={calls} calls, per 1000");
    let per_op = |e: Event| d.get(e) as f64 / calls as f64;
    let per_kop = |e: Event| 1000.0 * d.get(e) as f64 / calls as f64;
    let of = |n: Event, den: u64| (ratio(d.get(n), den), format!("{} of {den}", d.get(n)));
    let harness = lad.raw_ns[0];
    let rung = |i: usize| {
        (
            lad.raw_ns[i] - harness,
            format!(
                "median of {} rounds, raw {:.3} ns minus harness {:.3} ns",
                lad.rounds, lad.raw_ns[i], harness
            ),
        )
    };
    let deq_calls: u64 = outcome.workers().map(|w| w.deq_calls).sum();
    let deq_empty: u64 = outcome.workers().map(|w| w.deq_empty).sum();
    let incs: u64 = d.nonzero().map(|(_, c)| c).sum();
    let incs_per_op = incs as f64 / calls as f64;
    let retired_peak = outcome.workers().map(|w| w.retired_peak).max().unwrap_or(0);

    let logs: Vec<&trace::SpanLog> = outcome
        .workers()
        .chain(probe.iter().flat_map(|o| o.workers()))
        .map(|w| &w.spans)
        .chain(std::iter::once(&rung_spans))
        .collect();
    let source = if is_rtt {
        "workload"
    } else {
        "channel-rtt probe"
    };
    let rtt_logs: Vec<&trace::SpanLog> = rtt.workers().map(|w| &w.spans).collect();
    let (send_p50, sends) = ladder::span_p50(&rtt_logs, &[trace::SEND, trace::SERVER_SEND]);
    let (recv_p50, recvs) = ladder::span_p50(&rtt_logs, &[trace::RECV]);
    let rd = &rtt.counters;
    let rtt_calls = rtt.window_calls().max(1);
    let parks = rd.get(Event::Park);
    // `EventCount::wait` counts `WakeSpurious` before every condvar wait,
    // the first one of each park included, so the extra waits per park are
    // the counter minus the parks.
    let spurious = rd.get(Event::WakeSpurious).saturating_sub(parks);
    let (untraced_slices, traced_slices) = (outcome.slice_mops(false), outcome.slice_mops(true));
    let (untraced, traced) = (median(&untraced_slices), median(&traced_slices));

    let mut m = vec![metric(
        "harness.ns_per_op",
        harness,
        "ns",
        format!("median of {} rounds, raw", lad.rounds),
    )];
    let (v, b) = rung(1);
    m.push(metric("atomic.faa.ns_per_op", v, "ns", b));
    m.push(metric(
        "atomic.faa_per_op",
        per_op(Event::Faa),
        "count/op",
        base.clone(),
    ));
    m.push(metric(
        "atomic.cas2_per_op",
        per_op(Event::Cas2Attempt),
        "count/op",
        base.clone(),
    ));
    let (v, b) = of(Event::Cas2Failure, d.get(Event::Cas2Attempt));
    m.push(metric("atomic.cas2_fail_ratio", v, "ratio", b));
    let (v, b) = of(Event::CasFailure, d.get(Event::CasAttempt));
    m.push(metric("atomic.cas_fail_ratio", v, "ratio", b));
    let (v, b) = rung(2);
    m.push(metric("core.crq.ns_per_op", v, "ns", b));
    m.push(metric(
        "core.crq.node_visits_per_op",
        per_op(Event::NodeVisit),
        "count/op",
        base.clone(),
    ));
    m.push(metric(
        "core.crq.spin_waits_per_op",
        per_op(Event::SpinWait),
        "count/op",
        base.clone(),
    ));
    m.push(metric(
        "core.crq.empty_transitions_per_op",
        per_op(Event::EmptyTransition),
        "count/op",
        base.clone(),
    ));
    m.push(metric(
        "core.crq.unsafe_transitions_per_op",
        per_op(Event::UnsafeTransition),
        "count/op",
        base.clone(),
    ));
    m.push(metric(
        "core.crq.deq_empty_ratio",
        ratio(deq_empty, deq_calls),
        "ratio",
        format!("{deq_empty} of {deq_calls} dequeue calls"),
    ));
    let (v, b) = rung(3);
    m.push(metric("core.lcrq.ns_per_op", v, "ns", b));
    m.push(metric(
        "hazard.protect_clear.ns",
        micro.protect_clear,
        "ns",
        "single thread, median of 1024-call chunks".into(),
    ));
    m.push(metric(
        "core.lcrq.ring_closes_per_kop",
        per_kop(Event::CrqClosed),
        "count/kop",
        kbase.clone(),
    ));
    m.push(metric(
        "core.lcrq.ring_allocs_per_kop",
        per_kop(Event::RingAlloc),
        "count/kop",
        kbase.clone(),
    ));
    let (v, b) = of(
        Event::RingReuse,
        d.get(Event::RingReuse) + d.get(Event::RingAlloc),
    );
    m.push(metric("core.pool.hit_ratio", v, "ratio", b));
    m.push(metric(
        "core.pool.pop.ns",
        micro.pool_pop,
        "ns",
        "single thread, 8 default rings".into(),
    ));
    m.push(metric(
        "core.pool.push.ns",
        micro.pool_push,
        "ns",
        "single thread, 8 default rings".into(),
    ));
    m.push(metric(
        "hazard.scans_per_kop",
        per_kop(Event::HazardScan),
        "count/kop",
        kbase,
    ));
    m.push(metric(
        "hazard.scan.ns",
        micro.scan,
        "ns",
        "single thread, 16 retired boxes".into(),
    ));
    m.push(metric(
        "hazard.retired_peak",
        retired_peak as f64,
        "count",
        "max of Domain::retired_count sampled every 1024 traced pairs".into(),
    ));
    let (v, b) = rung(4);
    m.push(metric("core.sharded.ns_per_op", v, "ns", b));
    let (v, b) = rung(5);
    m.push(metric("core.typed.ns_per_op", v, "ns", b));
    let (v, b) = rung(6);
    m.push(metric("channel.ns_per_op", v, "ns", b));
    m.push(metric(
        "channel.send.ns_p50",
        send_p50,
        "ns",
        format!("{source}: p50 of {sends} client and server send spans"),
    ));
    m.push(metric(
        "channel.recv.wait_ns_p50",
        recv_p50,
        "ns",
        format!("{source}: p50 of {recvs} client recv spans"),
    ));
    let rbase = format!("{source}: base={rtt_calls} calls");
    m.push(metric(
        "util.parker.parks_per_op",
        parks as f64 / rtt_calls as f64,
        "count/op",
        rbase.clone(),
    ));
    m.push(metric(
        "util.parker.unparks_per_op",
        rd.get(Event::Unpark) as f64 / rtt_calls as f64,
        "count/op",
        rbase,
    ));
    m.push(metric(
        "util.parker.spurious_wake_ratio",
        ratio(spurious, parks),
        "ratio",
        format!("{source}: {spurious} re-waits of {parks} parks"),
    ));
    m.push(metric(
        "util.metrics.inc.ns",
        micro.metrics_inc,
        "ns",
        "single thread, median of 4096-call chunks".into(),
    ));
    m.push(metric(
        "util.metrics.incs_per_op",
        incs_per_op,
        "count/op",
        base,
    ));
    m.push(metric(
        "util.metrics.tax_ns_per_op",
        micro.metrics_inc * incs_per_op,
        "ns",
        "util.metrics.inc.ns x util.metrics.incs_per_op".into(),
    ));
    m.push(metric(
        "trace.overhead_pct",
        100.0 * (untraced - traced) / untraced,
        "%",
        format!(
            "untraced {untraced:.4} vs traced {traced:.4} Mops/s, medians of {} and {} slices; \
             {} spans recorded",
            untraced_slices.len(),
            traced_slices.len(),
            logs.iter().map(|l| l.recorded()).sum::<u64>()
        ),
    ));

    let path = args
        .trace_dir
        .join(format!("{}-seed{}.csv", p.workload.name(), p.seed));
    trace::write_csv(&path, &logs).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok((outcome, m))
}

fn render(metrics: &[Metric], with_basis: bool) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            m.name, m.value, m.unit
        );
        if with_basis {
            let _ = write!(out, ", \"basis\": {}", json_str(&m.basis));
        }
        out.push('}');
    }
    out.push('}');
    Ok(out)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc's mmap threshold at its 128 KiB default. Left dynamic, the
/// first `free` of a ring raises it, and later rings are carved from
/// recycled heap memory, so set-up cost and cache placement would depend
/// on how many instances the process built before. Fixed, every queue
/// instance maps fresh pages, as in a process that builds one queue.
fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only adjusts allocator tuning; it is called
        // before any other thread exists.
        let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        if ok != 1 {
            eprintln!("warning: mallopt(M_MMAP_THRESHOLD) failed");
        }
    }
}

fn main() {
    fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let p = &args.params;
    clock::calibrate(Duration::from_millis(50));
    println!("{}", host_line(p));

    let result = if p.traced {
        per_layer(p, &args)
    } else {
        workload::run(p).map(|o| {
            let m = end_to_end(&o);
            (o, m)
        })
    };
    let (outcome, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let v = &outcome.verdict;
    let failed_ratio = ratio(v.failed, v.attempted);
    let (report, line) = match (render(&metrics, true), render(&metrics, false)) {
        (Ok(r), Ok(l)) => (r, l),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"report\": {{\"failed_ops_ratio\": {failed_ratio}, \"problems\": [{}], \
         \"pinned\": {}, \"metrics\": {report}}}}}",
        v.problems
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", "),
        outcome.workers().all(|w| w.pinned),
    );
    let correct = v.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {line}}}",
        v.attempted.max(1),
        v.failed
    );
    if !correct {
        eprintln!(
            "delivery check FAILED on {} with --seed {}: {}",
            p.workload.name(),
            p.seed,
            v.problems.join("; ")
        );
        std::process::exit(1);
    }
}
