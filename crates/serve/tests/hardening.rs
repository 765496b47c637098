//! Hostile-client and overload behaviour of the prediction server.
//!
//! Every test here plays an adversary: slow-loris header dribbling,
//! malformed or hostile `Content-Length`, truncated bodies, request floods
//! against a deliberately tiny worker pool, panicking handlers, and
//! keep-alive clients that refuse to hang up during shutdown.  The server
//! must always answer with a typed status (or close the socket) within its
//! configured deadlines — never hang a worker, never shrink the pool, never
//! panic the process.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use m3_core::ExecContext;
use m3_ml::LinearModel;
use m3_serve::{http_request, read_response, ModelRegistry, PredictServer, ServeConfig};

const N_FEATURES: usize = 4;

/// Deadlines tightened so adversarial tests finish in milliseconds, not the
/// production-default seconds.
fn test_config() -> ServeConfig {
    ServeConfig {
        n_workers: 2,
        queue_capacity: 16,
        request_read_timeout: Duration::from_millis(300),
        idle_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        drain_deadline: Duration::from_secs(2),
        max_body_bytes: 1 << 20,
        fault_route: false,
    }
}

fn serve(config: ServeConfig) -> (PredictServer, tempfile::TempDir) {
    let dir = tempfile::tempdir().unwrap();
    let artifact = dir.path().join("model.m3m");
    LinearModel {
        weights: vec![1.0; N_FEATURES].into(),
        bias: 0.5,
    }
    .save(&artifact)
    .unwrap();
    let registry = Arc::new(ModelRegistry::open(&artifact).unwrap());
    let server = PredictServer::bind_with(
        "127.0.0.1:0",
        registry,
        Arc::new(ExecContext::new()),
        config,
    )
    .unwrap();
    (server, dir)
}

/// The server must keep answering well-formed requests — the proof that an
/// adversarial connection harmed nobody but itself.
fn assert_still_serving(server: &PredictServer) {
    let (status, body) = http_request(server.local_addr(), "GET", "/health", "").unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("\"status\":\"ok\""),
        "unexpected health: {body}"
    );
}

#[test]
fn malformed_content_length_gets_400() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(
        stream,
        "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: banana\r\n\r\n"
    )
    .unwrap();
    let (status, body) = read_response(BufReader::new(stream)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("content-length"), "body: {body}");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn negative_and_overflowing_content_lengths_get_400() {
    let (server, _dir) = serve(test_config());
    for hostile in ["-5", "18446744073709551617", "1e9", "0x100"] {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(
            stream,
            "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: {hostile}\r\n\r\n"
        )
        .unwrap();
        let (status, _) = read_response(BufReader::new(stream)).unwrap();
        assert_eq!(status, 400, "content-length {hostile:?}");
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn oversized_declared_body_gets_413_without_allocation() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Declares 1 TiB; the server must refuse from the header alone.
    write!(
        stream,
        "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: 1099511627776\r\n\r\n"
    )
    .unwrap();
    let start = Instant::now();
    let (status, body) = read_response(BufReader::new(stream)).unwrap();
    assert_eq!(status, 413);
    assert!(body.contains("exceeds"), "body: {body}");
    assert!(start.elapsed() < Duration::from_secs(2));
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn truncated_body_gets_a_typed_timeout_not_a_hung_worker() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Promise 100 bytes, send 3, go silent with the socket open.
    write!(
        stream,
        "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: 100\r\n\r\n1,2"
    )
    .unwrap();
    let start = Instant::now();
    let (status, _) = read_response(BufReader::new(stream)).unwrap();
    assert_eq!(status, 408);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "timeout took {:?}",
        start.elapsed()
    );
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn half_closed_body_gets_400_truncated() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(
        stream,
        "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: 100\r\n\r\n1,2"
    )
    .unwrap();
    // Close our sending half: the server sees EOF mid-body.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let (status, body) = read_response(BufReader::new(stream)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("truncated"), "body: {body}");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn slow_loris_headers_get_408_within_the_deadline() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(stream, "GET /health HTTP/1.1\r\nX-Dribble: ").unwrap();
    let start = Instant::now();
    // Dribble one byte every 50 ms, never finishing the header line.  The
    // 300 ms request deadline must cut us off.
    let disconnected = loop {
        if stream.write_all(b"a").is_err() {
            break true;
        }
        let _ = stream.flush();
        if start.elapsed() > Duration::from_secs(3) {
            break false;
        }
        thread::sleep(Duration::from_millis(50));
    };
    // Either the write side noticed the reset or the response is readable.
    if !disconnected {
        let (status, _) = read_response(BufReader::new(stream)).unwrap();
        assert_eq!(status, 408);
    }
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "slow-loris held the connection for {:?}",
        start.elapsed()
    );
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn idle_connections_are_closed_silently_after_the_idle_timeout() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Say nothing at all.  The server must hang up, sending no response.
    let mut buf = Vec::new();
    let start = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let n = stream.read_to_end(&mut buf).unwrap();
    assert_eq!(n, 0, "idle close must not write a response");
    assert!(start.elapsed() < Duration::from_secs(2));
    server.shutdown();
}

#[test]
fn oversized_header_line_gets_431() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let huge = "a".repeat(64 << 10);
    write!(stream, "GET /health HTTP/1.1\r\nX-Huge: {huge}\r\n\r\n").unwrap();
    let (status, _) = read_response(BufReader::new(stream)).unwrap();
    assert_eq!(status, 431);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn garbage_request_line_gets_400_not_a_dropped_connection() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(stream, "\u{1}\u{2}garbage\r\n\r\n").unwrap();
    let (status, _) = read_response(BufReader::new(stream)).unwrap();
    assert_eq!(status, 400);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_503_while_accepted_work_completes() {
    // One worker, one queue slot: the worker camps on a slow (dribbled)
    // request while a flood arrives.  Everything beyond worker + queue must
    // be shed with a typed 503, quickly, and every accepted request must
    // still complete correctly.
    let mut config = test_config();
    config.n_workers = 1;
    config.queue_capacity = 1;
    config.request_read_timeout = Duration::from_millis(600);
    let (server, _dir) = serve(config);
    let addr = server.local_addr();

    // Occupy the single worker: a request whose body never finishes.
    let mut camper = TcpStream::connect(addr).unwrap();
    write!(
        camper,
        "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: 50\r\n\r\n1,2"
    )
    .unwrap();
    thread::sleep(Duration::from_millis(100));

    // Flood.  With capacity 1 the first queued connection waits its turn;
    // the rest bounce with 503 {"status":"overloaded"}.
    let clients: Vec<_> = (0..12)
        .map(|_| {
            thread::spawn(move || {
                let start = Instant::now();
                let result = http_request(addr, "GET", "/health", "");
                (result, start.elapsed())
            })
        })
        .collect();
    let mut ok = 0usize;
    let mut shed = 0usize;
    for client in clients {
        let (result, elapsed) = client.join().unwrap();
        match result {
            Ok((200, body)) => {
                assert!(body.contains("\"model_version\""), "body: {body}");
                ok += 1;
            }
            Ok((503, body)) => {
                assert_eq!(body, "{\"status\":\"overloaded\"}");
                assert!(elapsed < Duration::from_secs(1), "shed took {elapsed:?}");
                shed += 1;
            }
            Ok((status, body)) => panic!("unexpected response {status}: {body}"),
            // A TCP reset under flood is acceptable only for shed
            // connections on platforms that race close-with-data; treat it
            // as shed.
            Err(_) => shed += 1,
        }
    }
    assert!(shed > 0, "queue never overflowed: ok={ok} shed={shed}");
    assert!(ok > 0, "no accepted request completed: shed={shed}");

    // The camper is eventually timed out, freeing the worker.
    let (status, _) = read_response(BufReader::new(camper)).unwrap();
    assert_eq!(status, 408);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn panicking_handler_loses_its_connection_but_not_the_pool() {
    let mut config = test_config();
    config.n_workers = 2;
    config.fault_route = true;
    let (server, _dir) = serve(config);
    let addr = server.local_addr();

    // Panic every worker several times over.
    for _ in 0..6 {
        // The handler dies before writing anything, so the client sees a
        // closed or reset connection — but never a process crash.
        let _ = http_request(addr, "POST", "/__fault/panic", "");
    }
    // The client observes the dropped connection before the worker's
    // catch_unwind bumps the counter, so give the last increment a moment
    // to land before asserting the exact total.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.worker_panics() < 6 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.worker_panics(), 6);

    // The pool has not shrunk: with 2 workers, 2 concurrent predictions
    // plus interleaved health checks all still succeed.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                if i % 2 == 0 {
                    http_request(addr, "POST", "/predict", "1,2,3,4\n")
                } else {
                    http_request(addr, "GET", "/health", "")
                }
            })
        })
        .collect();
    for handle in handles {
        let (status, _) = handle.join().unwrap().unwrap();
        assert_eq!(status, 200);
    }
    let report = server.shutdown();
    assert!(report.drained);
}

#[test]
fn fault_route_is_404_when_disabled() {
    let (server, _dir) = serve(test_config());
    let (status, _) = http_request(server.local_addr(), "POST", "/__fault/panic", "").unwrap();
    assert_eq!(status, 404);
    assert_eq!(server.worker_panics(), 0);
    server.shutdown();
}

#[test]
fn shutdown_returns_within_the_drain_deadline_despite_keepalive_clients() {
    let mut config = test_config();
    config.idle_timeout = Duration::from_secs(30); // keep-alive clients may idle
    let (server, _dir) = serve(config);
    let addr = server.local_addr();

    // Two keep-alive clients: one idle between requests, one that
    // completed a request and is just sitting there.
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut parked = TcpStream::connect(addr).unwrap();
    write!(
        parked,
        "GET /health HTTP/1.1\r\nHost: m3\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    // Wait for the response so the request is fully in the keep-alive gap.
    let mut reader = BufReader::new(parked.try_clone().unwrap());
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200);

    let start = Instant::now();
    let report = server.shutdown();
    let elapsed = start.elapsed();
    assert!(
        report.drained,
        "workers still running after {elapsed:?}: {report:?}"
    );
    assert_eq!(report.abandoned_workers, 0);
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown blocked on keep-alive clients for {elapsed:?}"
    );

    // Both sockets are closed from the server side.
    for stream in [&mut idle, &mut parked] {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 64];
        match stream.read(&mut buf) {
            Ok(0) => {} // clean close
            Ok(_) => panic!("unexpected bytes after shutdown"),
            Err(e) => assert_ne!(
                e.kind(),
                std::io::ErrorKind::WouldBlock,
                "socket still open: {e}"
            ),
        }
    }
}

#[test]
fn health_reports_degraded_after_a_failed_swap_and_recovers() {
    let (server, dir) = serve(test_config());
    let addr = server.local_addr();
    assert_still_serving(&server);

    // Swap to a path that does not exist: refused, keeps serving v1.
    let missing = dir.path().join("missing.m3m");
    let (status, _) = http_request(addr, "POST", "/swap", missing.to_str().unwrap()).unwrap();
    assert_eq!(status, 400);

    let (status, body) = http_request(addr, "GET", "/health", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"degraded\""), "body: {body}");
    assert!(body.contains("\"model_version\":1"), "body: {body}");
    assert!(body.contains("\"last_swap_error\""), "body: {body}");
    // Predictions still work on the last good model.
    let (status, body) = http_request(addr, "POST", "/predict", "1,1,1,1\n").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"model_version\":1"), "body: {body}");

    // A good swap clears the degradation.
    let good = dir.path().join("model.m3m");
    let (status, _) = http_request(addr, "POST", "/swap", good.to_str().unwrap()).unwrap();
    assert_eq!(status, 200);
    let (_, body) = http_request(addr, "GET", "/health", "").unwrap();
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"model_version\":2"), "body: {body}");
    server.shutdown();
}

#[test]
fn keep_alive_connections_answer_many_requests_then_respect_close() {
    let (server, _dir) = serve(test_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..5 {
        write!(
            stream,
            "POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: 8\r\n\r\n1,2,3,4\n"
        )
        .unwrap();
        let (status, body) = read_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(body.ends_with("[10.5]}"), "body: {body}");
    }
    write!(
        stream,
        "GET /health HTTP/1.1\r\nHost: m3\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 200);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection not closed after close request");
    server.shutdown();
}

#[test]
fn keep_alive_round_trips_do_not_stall_on_delayed_acks() {
    // A clean client: TCP_NODELAY and each request in one write, so any
    // stall is the server's.  A response sent in several pieces waits for
    // the client's delayed ACK, at least 40 ms on Linux.
    let (server, _dir) = serve(test_config());
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let predict: &[u8] =
        b"POST /predict HTTP/1.1\r\nHost: m3\r\nContent-Length: 8\r\n\r\n1,2,3,4\n";
    let health: &[u8] = b"GET /health HTTP/1.1\r\nHost: m3\r\nContent-Length: 0\r\n\r\n";
    let mut round_trips = Vec::new();
    // 50 predicts and 10 health checks, interleaved.
    for i in 0..60 {
        let request = if i % 6 == 5 { health } else { predict };
        let start = Instant::now();
        writer.write_all(request).unwrap();
        let (status, body) = read_response(&mut reader).unwrap();
        round_trips.push(start.elapsed());
        assert_eq!(status, 200, "body: {body}");
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median keep-alive round trip {median:?}: responses are stalling"
    );
    server.shutdown();
}
