//! The `fast-serve` client binary: submit the budget-sweep bench matrix
//! (or a domain shard of it) to a running daemon, stream progress to
//! stderr, and print the canonical frontier-points table to stdout.
//!
//! The stdout contract is the point: `fast-serve-client --submit` prints
//! exactly what `sweep_frontiers --points` prints for the same scenarios,
//! so `diff` proves a served (possibly killed-and-resumed, possibly
//! concurrent) run bit-identical to a single-process sweep. With
//! `--domain I/N` each client submits one contiguous domain shard;
//! concatenating shard outputs in index order reproduces the full matrix
//! order — the CI `serve-smoke` recipe.

use std::process::ExitCode;

use fast_bench::cli::{parse_serve_client_cli, ServeAction, ServeClientCli};
use fast_bench::pareto_figs::{bench_config, bench_matrix};
use fast_core::{points_table, JobSpec};
use fast_serve::{Client, JobEvent, JobPhase, ListenAddr};

const USAGE: &str = "usage: fast-serve-client --addr tcp:HOST:PORT|unix:PATH [ACTION]
  actions (default: --submit):
    --submit             submit the bench matrix, stream events, print points
       --domain I/N      submit only domain shard I of N
       --name NAME       job display name
       --no-watch        return after acceptance instead of streaming
    --watch ID           attach to job ID and print its points on completion
    --status ID          print job ID's phase
    --list               list every journaled job
    --ping               liveness probe
    --shutdown           drain the queue and stop the daemon";

/// The spec a submission sends: the bench matrix (optionally sliced to one
/// contiguous domain shard) under the bench config.
fn bench_spec(name: String, domain_shard: Option<(usize, usize)>) -> JobSpec {
    let mut matrix = bench_matrix();
    if let Some((index, count)) = domain_shard {
        let len = matrix.domains.len();
        let range = (index * len / count)..((index + 1) * len / count);
        matrix.domains = matrix.domains.drain(range).collect();
    }
    JobSpec { name, matrix, config: bench_config() }
}

/// One line per streamed event, for stderr.
fn render_event(id: u64, event: &JobEvent) -> String {
    match event {
        JobEvent::Queued { position } => format!("job {id}: queued at position {position}"),
        JobEvent::Started { resumed } => {
            if *resumed {
                format!("job {id}: started (resuming a checkpoint)")
            } else {
                format!("job {id}: started")
            }
        }
        JobEvent::ScenarioStarted { index, total, name } => {
            format!("job {id}: scenario {}/{total} {name}", index + 1)
        }
        JobEvent::Round {
            index: _,
            name,
            trials_done,
            total_trials,
            best_objective,
            frontier_size,
            full_evals,
        } => {
            let best = best_objective.map_or("-".to_string(), |v| format!("{v:.4}"));
            let sims = full_evals.map_or(String::new(), |n| format!(", {n} full sims"));
            format!(
                "job {id}: {name} {trials_done}/{total_trials} trials, best {best}, \
                 frontier {frontier_size}{sims}"
            )
        }
        JobEvent::ScenarioFinished {
            index: _,
            name,
            frontier_size,
            best_objective,
            invalid_trials,
            staged,
            fidelity,
        } => {
            let best = best_objective.map_or("-".to_string(), |v| format!("{v:.4}"));
            let screen = fidelity.as_ref().map_or(String::new(), |f| {
                let rho = f.spearman.map_or("-".to_string(), |v| format!("{v:.3}"));
                format!(
                    ", {} full sims / {} screened out, spearman {rho}",
                    f.full_evals, f.screened_out
                )
            });
            format!(
                "job {id}: finished {name}: frontier {frontier_size}, best {best}, \
                 invalid {invalid_trials}, cache {}/{} hits/misses{screen}",
                staged.fuse.hits, staged.fuse.misses
            )
        }
        JobEvent::Warning { line } => format!("job {id}: {line}"),
    }
}

/// Streams a watched job to completion: events to stderr, points table to
/// stdout.
fn stream_outcome(client: &mut Client, id: u64) -> Result<(), String> {
    // Watching a long job: events are sparse, so reads must wait.
    client.set_read_timeout(None).map_err(|e| e.to_string())?;
    // Read responses one at a time (not Client::wait_done, which collects
    // silently) so progress renders live on stderr.
    let mut seen = 0usize;
    loop {
        match client.read_response().map_err(|e| e.to_string())? {
            fast_serve::Response::Event { id: ev_id, event } if ev_id == id => {
                eprintln!("{}", render_event(id, &event));
                seen += 1;
            }
            fast_serve::Response::Done { id: done_id, scenarios, staged } if done_id == id => {
                eprintln!(
                    "job {id}: done after {seen} events — job cache traffic: fuse {}/{} \
                     hits/misses, op {}/{}, sim {}/{}",
                    staged.fuse.hits,
                    staged.fuse.misses,
                    staged.op.hits,
                    staged.op.misses,
                    staged.sim.hits,
                    staged.sim.misses
                );
                print!("{}", points_table(&scenarios));
                return Ok(());
            }
            fast_serve::Response::Rejected { reason } => {
                return Err(format!("rejected: {reason}"));
            }
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
}

fn run(addr: &ListenAddr, action: ServeAction) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match action {
        ServeAction::Ping => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
            Ok(())
        }
        ServeAction::Submit { domain_shard, name, watch } => {
            let spec = bench_spec(name, domain_shard);
            let (id, position) = client.submit(&spec, watch).map_err(|e| e.to_string())?;
            eprintln!("job {id}: accepted at queue position {position}");
            if watch {
                stream_outcome(&mut client, id)
            } else {
                println!("accepted job {id} at position {position}");
                Ok(())
            }
        }
        ServeAction::Watch(id) => {
            client.send(&fast_serve::Request::Watch { id }).map_err(|e| e.to_string())?;
            stream_outcome(&mut client, id)
        }
        ServeAction::Status(id) => {
            match client.request(&fast_serve::Request::Status { id }).map_err(|e| e.to_string())? {
                fast_serve::Response::JobStatus { id, phase } => {
                    let phase = match phase {
                        JobPhase::Queued { position } => format!("queued at position {position}"),
                        JobPhase::Running => "running".to_string(),
                        JobPhase::Done => "done".to_string(),
                        JobPhase::Damaged { what } => format!("damaged: {what}"),
                    };
                    println!("job {id}: {phase}");
                    Ok(())
                }
                fast_serve::Response::Rejected { reason } => Err(format!("rejected: {reason}")),
                other => Err(format!("unexpected response: {other:?}")),
            }
        }
        ServeAction::List => {
            match client.request(&fast_serve::Request::List).map_err(|e| e.to_string())? {
                fast_serve::Response::Jobs { jobs } => {
                    for (id, phase) in jobs {
                        println!("job {id}: {phase:?}");
                    }
                    Ok(())
                }
                fast_serve::Response::Rejected { reason } => Err(format!("rejected: {reason}")),
                other => Err(format!("unexpected response: {other:?}")),
            }
        }
        ServeAction::Shutdown => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("server drained and exited");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match parse_serve_client_cli(std::env::args().skip(1)) {
        Ok(ServeClientCli::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(ServeClientCli::Run { addr, action }) => {
            let addr = match ListenAddr::parse(&addr) {
                Ok(addr) => addr,
                Err(e) => {
                    eprintln!("fast-serve-client: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match run(&addr, action) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("fast-serve-client: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("fast-serve-client: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
