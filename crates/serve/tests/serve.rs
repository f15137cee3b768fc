//! End-to-end tests of the planning service over real loopback sockets.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmf_engine::{EngineConfig, PlanKey};
use dmf_obs::json::{self, Json};
use dmf_ratio::TargetRatio;
use dmf_serve::{Client, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PCR: &str = "2:1:1:1:1:1:9";

fn test_config() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".to_owned(), ..ServeConfig::default() }
}

/// Runs `body` against a live server and asserts a clean drain: the
/// shutdown op is sent by the harness, and `run` must return Ok.
fn with_server(config: ServeConfig, body: impl FnOnce(&Server, std::net::SocketAddr)) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        body(&server, addr);
        let mut control = Client::connect(addr).unwrap();
        let line = control.request(r#"{"op":"shutdown"}"#).unwrap();
        assert!(line.contains("\"shutdown\""), "unexpected shutdown ack: {line}");
        handle.join().unwrap().unwrap();
    });
}

/// Polls the server-side counter until it reaches `at_least`; panics
/// after 5 seconds. This is what makes the concurrency tests
/// deterministic without sleeping for fixed amounts.
fn await_counter(server: &Server, name: &str, at_least: u64) {
    let started = Instant::now();
    while server.recorder().counter(name) < at_least {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timed out waiting for {name} >= {at_least} (now {})",
            server.recorder().counter(name)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn plan_round_trip_matches_the_paper_and_the_cache_key() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.request(r#"{"op":"ping"}"#).unwrap(), r#"{"ok":true,"type":"pong"}"#);

        let line =
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "not ok: {line}");
        // Paper Figs. 2–3: D=20 PCR streams in one pass, Tc=11, Tms=27,
        // W=5, I=25, q=5 on Mc=3 mixers.
        assert_eq!(v.get("demand").unwrap().as_u64(), Some(20));
        assert_eq!(v.get("passes").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("tc").unwrap().as_u64(), Some(11));
        assert_eq!(v.get("tms").unwrap().as_u64(), Some(27));
        assert_eq!(v.get("waste").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("inputs").unwrap().as_u64(), Some(25));
        assert_eq!(v.get("storage_peak").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("mixers").unwrap().as_u64(), Some(3));
        assert_eq!(
            v.get("summary").unwrap().as_str(),
            Some("D=20 passes=1 Tc=11 Tms=27 W=5 I=25 q=5 (Mc=3)")
        );

        // The advertised fingerprint is the engine's content address for
        // this (config, target, demand) tuple.
        let target: TargetRatio = PCR.parse().unwrap();
        let key = PlanKey::new(&EngineConfig::default(), &target, 20);
        assert_eq!(
            v.get("fingerprint").unwrap().as_str(),
            Some(format!("{:016x}", key.fingerprint()).as_str())
        );
    });
}

#[test]
fn stats_members_keep_their_wire_order() {
    let config = ServeConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 256,
        cache_shards: 4,
        ..test_config()
    };
    let mut stats = String::new();
    with_server(config, |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        client.request(r#"{"op":"ping"}"#).unwrap();
        stats = client.request(r#"{"op":"stats"}"#).unwrap();
    });
    assert_eq!(
        stats,
        concat!(
            r#"{"ok":true,"type":"stats","requests":2,"connections":1,"planned":0,"plan_failed":0,"#,
            r#""bad_request":0,"too_large":0,"infeasible":0,"unknown_algo":0,"busy":0,"deadline":0,"#,
            r#""slow":0,"op_plan":0,"op_stats":1,"op_ping":1,"op_shutdown":0,"op_stall":0,"#,
            r#""enqueued":0,"dequeued":0,"latency_count":0,"latency_mean_ns":0,"latency_p50_ns":0,"#,
            r#""latency_p90_ns":0,"latency_p99_ns":0,"workers":2,"queue_depth":64,"#,
            r#""queue_depth_peak":0,"cache_len":0,"cache_capacity":256,"cache_shards":4,"#,
            r#""cache_hits":0,"cache_misses":0,"cache_evictions":0}"#,
        )
    );
}

#[test]
fn config_overrides_change_the_fingerprint_and_plan() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        let base =
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
        let constrained = client
            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20,"storage":3}}"#))
            .unwrap();
        let a = json::parse(&base).unwrap();
        let b = json::parse(&constrained).unwrap();
        assert_ne!(a.get("fingerprint"), b.get("fingerprint"));
        // Paper Table 4: the q'=3 budget forces multi-pass streaming.
        assert!(
            b.get("passes").unwrap().as_u64().unwrap() > 1,
            "expected multi-pass: {constrained}"
        );
    });
}

#[test]
fn bad_requests_get_typed_errors_and_do_not_kill_the_connection() {
    with_server(test_config(), |_, addr| {
        let mut client = Client::connect(addr).unwrap();
        for (request, expected) in [
            ("definitely not json", "bad_request"),
            (r#"{"op":"teleport"}"#, "bad_request"),
            (r#"{"op":"plan","ratio":"1:x"}"#, "bad_request"),
            (r#"{"op":"plan","ratio":"1:2"}"#, "infeasible"),
            (r#"{"op":"plan","ratio":"1:1","demand":0}"#, "infeasible"),
        ] {
            let line = client.request(request).unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "for {request}: {line}");
            assert_eq!(v.get("error").and_then(Json::as_str), Some(expected), "for {request}");
        }
        // The connection is still usable afterwards.
        assert!(client.request(r#"{"op":"ping"}"#).unwrap().contains("pong"));
    });
}

#[test]
fn a_deeply_nested_line_is_a_bad_request_and_the_server_keeps_serving() {
    with_server(test_config(), |_, addr| {
        // 200 000 unclosed brackets: an unbounded recursive parser would
        // overflow the connection thread's stack and abort the process.
        let mut hostile = Client::connect(addr).unwrap();
        let line = hostile.request(&"[".repeat(200_000)).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"), "{line}");
        assert!(line.contains("nesting too deep"), "{line}");

        // 2 MiB without a newline passes the 1 MiB line cap: the server
        // answers too_large and hangs up instead of buffering forever.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // The server may hang up before the last bytes are written.
        let _ = raw.write_all(&vec![b'x'; 2 << 20]);
        let mut reader = BufReader::new(raw);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("too_large"), "{line}");
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "expected EOF after too_large");

        let mut client = Client::connect(addr).unwrap();
        let line =
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("summary").and_then(Json::as_str),
            Some("D=20 passes=1 Tc=11 Tms=27 W=5 I=25 q=5 (Mc=3)"),
            "{line}"
        );
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&stats).unwrap();
        assert_eq!(v.get("too_large").and_then(Json::as_u64), Some(1), "{stats}");
        assert_eq!(v.get("bad_request").and_then(Json::as_u64), Some(1), "{stats}");
    });
}

#[test]
fn a_megabyte_string_member_is_refused_quickly_and_the_server_keeps_serving() {
    with_server(test_config(), |_, addr| {
        // Parsing each string character against the rest of the line made
        // this 1 MB line pin the connection thread for ~25 s.
        let mut client = Client::connect(addr).unwrap();
        let ratio = "1".repeat(1_000_000);
        let started = Instant::now();
        let line =
            client.request(&format!(r#"{{"op":"plan","ratio":"{ratio}","demand":20}}"#)).unwrap();
        assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad_request"), "{line}");

        let line =
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(
            v.get("summary").and_then(Json::as_str),
            Some("D=20 passes=1 Tc=11 Tms=27 W=5 I=25 q=5 (Mc=3)"),
            "{line}"
        );
    });
}

#[test]
fn infeasible_requests_fail_fast_with_the_feasibility_rule() {
    with_server(test_config(), |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        // Sum 3 is not a power of two: rejected on the connection thread
        // with the FEAS001 rule in the message, before any worker runs.
        let line = client.request(r#"{"op":"plan","ratio":"1:2","demand":8}"#).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("error").and_then(Json::as_str), Some("infeasible"), "{line}");
        let message = v.get("message").and_then(Json::as_str).unwrap_or_default();
        assert!(message.contains("FEAS001"), "{line}");
        // A single pure fluid is degenerate (FEAS002).
        let line = client.request(r#"{"op":"plan","ratio":"16","demand":4}"#).unwrap();
        assert!(line.contains("FEAS002"), "{line}");
        // The rejections are accounted under their own counter, not
        // bad_request or plan_failed — and no planning work ever ran.
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&stats).unwrap();
        assert_eq!(v.get("infeasible").and_then(Json::as_u64), Some(2), "{stats}");
        assert_eq!(v.get("bad_request").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(v.get("plan_failed").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(v.get("planned").and_then(Json::as_u64), Some(0), "{stats}");
        assert_eq!(server.cache().stats().len, 0, "infeasible requests never warm the cache");
    });
}

#[test]
fn eight_concurrent_clients_get_byte_identical_summaries_for_equal_keys() {
    with_server(test_config(), |server, addr| {
        let responses = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        client
                            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<String>>()
        });
        assert_eq!(responses.len(), 8);
        for response in &responses {
            assert_eq!(
                response, &responses[0],
                "equal plan keys must serve byte-identical response lines"
            );
        }
        assert_eq!(server.recorder().counter("serve.planned"), 8);
        // All eight collapse onto one cache entry. Concurrent first
        // requests may each miss (plan_shared has no single-flight), but
        // a plan is a pure function of its key, so duplicated work still
        // yields byte-identical responses — which is what matters.
        let stats = server.cache().stats();
        assert_eq!(stats.len, 1);
        assert_eq!(stats.hits + stats.misses, 8);
        assert!(stats.misses >= 1);
    });
}

#[test]
fn a_traced_plan_request_yields_one_connected_span_tree() {
    with_server(test_config(), |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        let line = client
            .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20,"trace":true}}"#))
            .unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "not ok: {line}");
        assert_eq!(v.get("tc").unwrap().as_u64(), Some(11), "plan differs under tracing");

        // The response carries the trace ID and a stage breakdown that
        // includes the queue wait and every pipeline stage.
        let trace_hex = v.get("trace_id").and_then(Json::as_str).unwrap();
        assert_eq!(trace_hex.len(), 16);
        let trace_id = u64::from_str_radix(trace_hex, 16).unwrap();
        assert_ne!(trace_id, 0);
        let Some(Json::Arr(stages)) = v.get("stages") else { panic!("no stages: {line}") };
        let stage_names: Vec<&str> =
            stages.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
        for expected in [
            "serve_queue_wait",
            "serve_plan",
            "engine_plan",
            "stage_build_tree",
            "stage_build_forest",
            "stage_schedule",
            "stage_split_passes",
        ] {
            assert!(stage_names.contains(&expected), "missing {expected} in {stage_names:?}");
        }

        // Server-side, the same trace is one connected tree rooted at the
        // connection thread's serve_request span. The root itself is still
        // open while the response is being built, so wait for the request
        // to fully finish before asserting tree shape.
        await_counter(server, "serve.planned", 1);
        let spans = server.recorder().trace_spans(trace_id);
        let root: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
        assert_eq!(root.len(), 1, "one root per trace: {spans:?}");
        assert_eq!(root[0].name, "serve_request");
        assert_eq!(root[0].trace_id, root[0].span_id);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert_eq!(s.trace_id, trace_id);
            if s.parent_id != 0 {
                assert!(ids.contains(&s.parent_id), "orphan parent on {}", s.name);
            }
        }
        let wait = spans.iter().find(|s| s.name == "serve_queue_wait").unwrap();
        assert_eq!(wait.parent_id, root[0].span_id, "queue wait hangs off the request root");
        // The connection thread decoded; a worker thread planned.
        let decode = spans.iter().find(|s| s.name == "serve_decode").unwrap();
        let plan_span = spans.iter().find(|s| s.name == "serve_plan").unwrap();
        assert_eq!(decode.tid, root[0].tid);
        assert_ne!(plan_span.tid, root[0].tid, "planning happens on a worker thread");
    });
}

#[test]
fn lru_cache_stays_bounded_under_churn_and_reports_evictions() {
    // One shard: the exact eviction counts below assume a single global
    // LRU domain, not per-shard slices.
    let config = ServeConfig { cache_capacity: 2, cache_shards: 1, ..test_config() };
    with_server(config, |server, addr| {
        let mut client = Client::connect(addr).unwrap();
        for demand in [10, 11, 12, 13] {
            let line = client
                .request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":{demand}}}"#))
                .unwrap();
            assert!(line.contains("\"ok\":true"), "demand {demand} failed: {line}");
        }
        let line = client.request(r#"{"op":"stats"}"#).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("cache_capacity").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("cache_len").unwrap().as_u64(), Some(2), "cache unbounded: {line}");
        assert_eq!(v.get("cache_evictions").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("planned").unwrap().as_u64(), Some(4));
        assert_eq!(server.cache().stats().evictions, 2);
    });
}

#[test]
fn a_full_queue_rejects_with_busy_instead_of_queueing_unboundedly() {
    // One worker, one queue slot: a stalled worker plus one queued stall
    // leaves no room, so a third request must bounce immediately.
    let config = ServeConfig { workers: 1, queue_depth: 1, ..test_config() };
    with_server(config, |server, addr| {
        std::thread::scope(|s| {
            let occupant = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(r#"{"op":"stall","ms":1500}"#).unwrap()
            });
            // The worker has picked up the first stall...
            await_counter(server, "serve.dequeued", 1);
            let queued = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(r#"{"op":"stall","ms":0}"#).unwrap()
            });
            // ...and the second stall now fills the single queue slot.
            await_counter(server, "serve.enqueued", 2);

            let mut client = Client::connect(addr).unwrap();
            let line =
                client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "expected rejection: {line}");
            assert_eq!(v.get("error").and_then(Json::as_str), Some("busy"));
            assert!(server.recorder().counter("serve.busy") >= 1);

            // Control ops bypass the queue and stay responsive.
            assert!(client.request(r#"{"op":"stats"}"#).unwrap().contains("\"busy\":1"));

            assert!(occupant.join().unwrap().contains("stalled"));
            assert!(queued.join().unwrap().contains("stalled"));
        });
    });
}

#[test]
fn an_expired_queueing_deadline_is_answered_with_a_deadline_error() {
    let config = ServeConfig { workers: 1, queue_depth: 4, ..test_config() };
    with_server(config, |server, addr| {
        std::thread::scope(|s| {
            let occupant = s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(r#"{"op":"stall","ms":400}"#).unwrap()
            });
            await_counter(server, "serve.dequeued", 1);
            // Queued behind a 400ms stall with a 50ms deadline: by the
            // time a worker reaches it, it is already stale.
            let mut client = Client::connect(addr).unwrap();
            let line = client
                .request(&format!(
                    r#"{{"op":"plan","ratio":"{PCR}","demand":20,"deadline_ms":50}}"#
                ))
                .unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(v.get("error").and_then(Json::as_str), Some("deadline"), "{line}");
            assert_eq!(server.recorder().counter("serve.deadline"), 1);
            occupant.join().unwrap();
        });
    });
}

#[test]
fn shutdown_drains_queued_work_before_run_returns() {
    let config = ServeConfig { workers: 1, queue_depth: 8, ..test_config() };
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        let occupant = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(r#"{"op":"stall","ms":400}"#).unwrap()
        });
        await_counter(&server, "serve.dequeued", 1);
        // This plan request sits in the queue behind the stall...
        let queued = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&format!(r#"{{"op":"plan","ratio":"{PCR}","demand":20}}"#)).unwrap()
        });
        await_counter(&server, "serve.enqueued", 2);
        // ...when the shutdown lands.
        let mut control = Client::connect(addr).unwrap();
        control.request(r#"{"op":"shutdown"}"#).unwrap();
        handle.join().unwrap().unwrap();

        // Both in-flight requests were still answered, not dropped.
        assert!(occupant.join().unwrap().contains("stalled"));
        let line = queued.join().unwrap();
        assert!(line.contains("\"tms\":27"), "queued plan lost in shutdown: {line}");
    });
}
