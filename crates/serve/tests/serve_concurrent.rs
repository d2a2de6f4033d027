//! Concurrency: N clients hammering one daemon must each get exactly what
//! a solo single-process run of their spec produces — bit-identical — while
//! sharing one warm evaluator, and the admission controller must shed load
//! with typed rejects instead of stalls.

mod common;

use std::thread;

use common::{b0, expected_points, outcome_points, scratch, spec_one, ServerProc};
use fast_core::{BudgetLevel, JobSpec};
use fast_serve::{ClientError, JobEvent, JobPhase, RejectReason, Request, Response};

/// The three-client fixture: one domain, three budget levels, so the jobs
/// contend for the shared evaluator without being identical.
fn budget_specs(trials: usize, batch: usize) -> Vec<JobSpec> {
    [1.0, 0.75, 0.5]
        .iter()
        .map(|&scale| {
            let mut spec = spec_one(&format!("concurrent-{scale}"), b0(), trials, batch);
            spec.matrix.budgets = vec![BudgetLevel::scaled(scale)];
            spec
        })
        .collect()
}

#[test]
fn concurrent_clients_are_bit_identical_to_sequential_runs() {
    let specs = budget_specs(32, 4);
    let expected: Vec<String> = specs.iter().map(expected_points).collect();
    let journal = scratch("concurrent");

    // Two workers over three jobs: genuine overlap plus genuine queueing.
    let server = ServerProc::spawn(&journal, &["--max-inflight", "2"]);

    // Submit in shuffled order from parallel threads — arrival order, queue
    // position, and worker interleaving must not leak into any result.
    let order = [2usize, 0, 1];
    let points: Vec<(usize, String)> = thread::scope(|scope| {
        let handles: Vec<_> = order
            .iter()
            .map(|&i| {
                let spec = &specs[i];
                let server = &server;
                scope.spawn(move || {
                    let mut client = server.client();
                    client.set_read_timeout(None).expect("stream timeout off");
                    let outcome = client.run(spec).expect("served job completes");
                    (i, outcome_points(&outcome))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for (i, got) in points {
        assert_eq!(
            got, expected[i],
            "concurrently-served spec {i} must match its solo single-process run bit-for-bit"
        );
    }
}

#[test]
fn a_second_client_on_a_shared_domain_runs_mostly_warm() {
    let spec_a = spec_one("warmup", b0(), 32, 4);
    let mut spec_b = spec_a.clone();
    spec_b.name = "rerun".to_string();
    let expected = expected_points(&spec_a);
    let journal = scratch("shared-warm");

    let server = ServerProc::spawn(&journal, &["--max-inflight", "1"]);

    let mut first = server.client();
    first.set_read_timeout(None).expect("stream timeout off");
    let cold = first.run(&spec_a).expect("first job completes");
    assert_eq!(outcome_points(&cold), expected);

    // A *different* client submitting the same scenarios gets its own job
    // (own id, own journal entry) but the shared evaluator answers it
    // almost entirely from memory: the cross-client cache dividend.
    let mut second = server.client();
    second.set_read_timeout(None).expect("stream timeout off");
    let warm = second.run(&spec_b).expect("second job completes");
    assert_eq!(outcome_points(&warm), expected, "cache temperature must not alter results");
    assert!(
        warm.staged.fuse.hit_rate() > 0.5,
        "second client on a shared domain should run >50% warm, got {:.0}% ({}/{})",
        100.0 * warm.staged.fuse.hit_rate(),
        warm.staged.fuse.hits,
        warm.staged.fuse.misses
    );
}

#[test]
fn a_full_queue_is_a_typed_reject_and_service_order_is_fifo() {
    // One worker, one queue slot: the third concurrent job must bounce.
    let journal = scratch("queue-full");
    let server = ServerProc::spawn(&journal, &["--max-inflight", "1", "--queue", "1"]);

    // Job 1: long enough (64 rounds) to still be running while we fill and
    // overflow the queue behind it.
    let long = spec_one("occupant", b0(), 256, 4);
    let mut holder = server.client();
    holder.set_read_timeout(None).expect("stream timeout off");
    let (id1, _) = holder.submit(&long, true).expect("job 1 accepted");
    // Wait until the worker has *popped* job 1 — from then on the queue is
    // empty and job 1 occupies the only worker.
    loop {
        match holder.read_response().expect("job 1 stream") {
            Response::Event { event: JobEvent::Started { .. }, .. } => break,
            Response::Event { .. } => continue,
            other => panic!("unexpected response before start: {other:?}"),
        }
    }

    let quick = spec_one("queued", b0(), 16, 4);
    let mut second = server.client();
    let (id2, _) = second.submit(&quick, false).expect("job 2 queued");

    let mut third = server.client();
    match third.submit(&spec_one("bounced", b0(), 16, 4), false) {
        Err(ClientError::Rejected(RejectReason::QueueFull { capacity })) => {
            assert_eq!(capacity, 1, "reject must name the configured capacity");
        }
        other => panic!("expected a typed QueueFull reject, got {other:?}"),
    }

    // FIFO: job 2 only finishes after job 1 released the worker — so once a
    // watch on job 2 returns, job 1 must already be Done.
    let mut watcher = server.client();
    watcher.set_read_timeout(None).expect("stream timeout off");
    watcher.watch(id2).expect("queued job completes");
    let mut prober = server.client();
    match prober.request(&Request::Status { id: id1 }).expect("status answered") {
        Response::JobStatus { phase: JobPhase::Done, .. } => {}
        other => panic!("job 1 should be Done once job 2 finished (FIFO), got {other:?}"),
    }
}
