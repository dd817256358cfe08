//! The open-loop generator sends each request in one write. A request
//! written as head and body separately waits for the server's delayed
//! ACK (about 40 ms on Linux) before its body leaves the client, so a
//! hello-world `/run` timed through such a client measures the stall,
//! not the server.

use std::time::Duration;

use lol_serve::{json, ServeConfig, Server};
use lolcode::corpus;
use perfbench::loadgen::{self, request_bytes, Planned};

#[test]
fn hello_world_run_shows_no_two_write_stall() {
    let server = Server::start(ServeConfig { workers: 2, ..ServeConfig::default() }).unwrap();
    let body = format!("{{\"source\": \"{}\", \"pes\": 1}}", json::escape(corpus::HELLO_PARALLEL));
    let plan: Vec<Planned> = (0..20)
        .map(|i| Planned {
            due: Duration::from_millis(5 * i),
            bytes: request_bytes("POST", "/run", body.as_bytes()),
            keep: |b| b.to_vec(),
        })
        .collect();
    let out = loadgen::run(server.addr(), 1, &plan, Duration::from_secs(30)).unwrap();
    server.shutdown();
    assert!(out.iter().all(|o| o.status == 200 && o.one_write));
    assert!(out.iter().all(|o| String::from_utf8_lossy(&o.kept).contains("HAI ITZ 0 OF 1")));
    let mut lat: Vec<Duration> = out.iter().map(|o| o.latency).collect();
    lat.sort();
    let median = lat[lat.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median latency {median:?} looks like a write stall"
    );
}

#[test]
fn open_loop_keeps_sending_while_a_request_is_outstanding() {
    // Two requests due together on one connection: the second is sent
    // at its due time (pipelined), not after the first completes.
    let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
    let body = format!("{{\"source\": \"{}\", \"pes\": 2}}", json::escape(corpus::BARRIER_EXAMPLE));
    let plan: Vec<Planned> = (0..2)
        .map(|_| Planned {
            due: Duration::ZERO,
            bytes: request_bytes("POST", "/run", body.as_bytes()),
            keep: |b| b.to_vec(),
        })
        .collect();
    let out = loadgen::run(server.addr(), 1, &plan, Duration::from_secs(30)).unwrap();
    server.shutdown();
    assert!(out.iter().all(|o| o.status == 200));
    assert!(out[1].late < Duration::from_millis(5), "second request sent {:?} late", out[1].late);
    assert!(out[1].latency >= out[0].latency, "responses come back in order");
}
