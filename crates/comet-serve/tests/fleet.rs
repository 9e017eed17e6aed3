//! Fleet integration: a real `Router` in front of two real sharded
//! `Server`s, all over loopback TCP. Exercises key-stable routing
//! (router and shard agree on ownership), the shard-side 409 fence
//! against misrouted keys, aggregated `/metrics` and `/readyz`, and
//! partial degradation when one shard dies (its slice 503s, the
//! survivor keeps answering), and the router refusing bodies no shard
//! could use without a hop.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use comet_serve::route::ShardSpec;
use comet_serve::{ModelKind, Router, RouterConfig, ServeConfig, Server};

fn one_shot(addr: SocketAddr, raw: &str) -> (u16, String) {
    let (status, body, _) = time_from_last_byte(addr, raw);
    (status, body)
}

/// One HTTP exchange over a fresh connection, timing the reply from the
/// moment the request's last byte is written.
fn time_from_last_byte(addr: SocketAddr, raw: &str) -> (u16, String, Duration) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();
    let (head, last) = raw.as_bytes().split_at(raw.len() - 1);
    stream.write_all(head).expect("write request");
    let start = Instant::now();
    stream.write_all(last).expect("write last byte");
    let mut reader = BufReader::new(&stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf8"), start.elapsed())
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
}

fn predict_body(block: &str) -> String {
    format!(r#"{{"v":1,"block":"{block}"}}"#)
}

struct Fleet {
    shards: Vec<Server>,
    router: Router,
}

fn start_fleet(count: u32) -> Fleet {
    let shards: Vec<Server> = (0..count)
        .map(|index| {
            Server::start(
                ModelKind::CrudeHaswell,
                ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    shard: Some(ShardSpec { index, count }),
                    ..ServeConfig::default()
                },
            )
            .expect("bind shard")
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        workers: 2,
        ..RouterConfig::default()
    })
    .expect("bind router");
    Fleet { shards, router }
}

/// One parseable block per shard slot, found by asking the router's
/// own ring (unparseable blocks 400 before the shard fence, so the
/// probes must be real instructions).
fn blocks_per_shard(router: &Router, count: u32) -> Vec<String> {
    let candidates = [
        "add rcx, rax",
        "mov rdx, rcx",
        "pop rbx",
        "div rcx",
        "imul rax, rcx",
        "nop",
        "add rax, rbx",
        "mov rax, rdx",
        "push rbp",
        "sub rax, rcx",
        "xor rax, rax",
        "inc rcx",
    ];
    (0..count)
        .map(|shard| {
            candidates
                .iter()
                .find(|b| router.owner_of_block(b) == shard)
                .unwrap_or_else(|| panic!("no candidate block hashes to shard {shard}"))
                .to_string()
        })
        .collect()
}

#[test]
fn routing_is_key_stable_and_shards_fence_misroutes() {
    let fleet = start_fleet(2);
    let blocks = blocks_per_shard(&fleet.router, 2);

    for (shard, block) in blocks.iter().enumerate() {
        let request = post("/v1/predict", &predict_body(block));

        // Through the router: always 200.
        let (status, via_router) = one_shot(fleet.router.addr(), &request);
        assert_eq!(status, 200, "shard {shard} via router: {via_router}");

        // Straight at the owning shard: identical answer.
        let (status, direct) = one_shot(fleet.shards[shard].addr(), &request);
        assert_eq!(status, 200);
        assert_eq!(direct, via_router, "router must forward the shard's bytes verbatim");

        // Straight at the wrong shard: fenced with a 409 naming the owner.
        let other = 1 - shard;
        let (status, body) = one_shot(fleet.shards[other].addr(), &request);
        assert_eq!(status, 409, "misroute must be refused: {body}");
        assert!(body.contains("owned by shard"), "{body}");
        assert!(body.contains(&format!("owned by shard {shard}")), "{body}");
    }

    for server in fleet.shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}

#[test]
fn router_forwards_the_shards_400_for_deeply_nested_json_and_keeps_serving() {
    let fleet = start_fleet(2);
    // ~400 KB of `[`: under the body cap, far past the JSON parser's
    // nesting cap. The router decodes the body for its routing key and
    // answers the shard's 400 itself; it must not overflow its stack.
    let hostile = "[".repeat(400 * 1024);
    let (status, body) = one_shot(fleet.router.addr(), &post("/v1/predict", &hostile));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("recursion limit"), "{body}");

    for block in blocks_per_shard(&fleet.router, 2) {
        let (status, body) =
            one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(&block)));
        assert_eq!(status, 200, "{body}");
    }

    for server in fleet.shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}

#[test]
fn router_refuses_unusable_bodies_itself_even_with_every_shard_down() {
    let fleet = start_fleet(2);
    let nested = post("/v1/predict", &"[".repeat(400 * 1024));
    // ~40k instructions (~700 KB): over the predict cap.
    let block = vec!["add rcx, 0x12345"; 40_000].join("\\n");
    let huge = post("/v1/predict", &predict_body(&block));
    let valid = post("/v1/predict", &predict_body("add rcx, rax"));
    let refuse = |addr: SocketAddr| {
        let (status, body) = one_shot(addr, &nested);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("recursion limit"), "{body}");
        let (status, body, elapsed) = time_from_last_byte(addr, &huge);
        assert_eq!(status, 413, "{body}");
        assert!(body.contains("/v1/predict accepts at most 256 instructions"), "{body}");
        assert!(elapsed < Duration::from_secs(1), "413 took {elapsed:?}");
    };
    refuse(fleet.router.addr());
    refuse(fleet.shards[0].addr());
    let (status, body) = one_shot(fleet.router.addr(), &valid);
    assert_eq!(status, 200, "{body}");

    // With no shard left, refusals still come from the router, and a
    // usable request gets the 503 that proves nothing else answered.
    for server in fleet.shards {
        server.shutdown();
    }
    refuse(fleet.router.addr());
    let (status, body) = one_shot(fleet.router.addr(), &valid);
    assert_eq!(status, 503, "{body}");
    fleet.router.shutdown();
}

#[test]
fn router_aggregates_metrics_and_readyz_across_shards() {
    let fleet = start_fleet(2);
    let blocks = blocks_per_shard(&fleet.router, 2);

    // Traffic to both slices so per-shard counters are nonzero.
    for block in &blocks {
        let (status, _) = one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(block)));
        assert_eq!(status, 200);
    }

    // /readyz: aggregated verdict with one entry per shard.
    let (status, body) = one_shot(fleet.router.addr(), &get("/readyz"));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""ready":true"#), "{body}");
    assert!(body.contains(r#""router":true"#), "{body}");
    assert!(body.contains(r#""index":0"#) && body.contains(r#""index":1"#), "{body}");

    // /metrics: per-shard up gauges, router counters, and shard
    // counters summed into a single exposition.
    let (status, text) = one_shot(fleet.router.addr(), &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains("comet_shard_up{shard=\"0\"} 1"), "{text}");
    assert!(text.contains("comet_shard_up{shard=\"1\"} 1"), "{text}");
    assert!(text.contains("comet_router_requests_total"), "{text}");
    let predict_total: f64 = text
        .lines()
        .filter(|l| l.starts_with("comet_requests_total{") && l.contains("endpoint=\"predict\""))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum();
    assert!(predict_total >= 2.0, "summed predict counter across shards: {predict_total}\n{text}");

    // /healthz is answered by the router itself, without fan-out.
    let (status, body) = one_shot(fleet.router.addr(), &get("/healthz"));
    assert_eq!(status, 200);
    assert!(body.contains(r#""router":true"#), "{body}");
    assert!(body.contains(r#""shards":2"#), "{body}");

    for server in fleet.shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}

#[test]
fn dead_shard_degrades_only_its_slice() {
    let fleet = start_fleet(2);
    let blocks = blocks_per_shard(&fleet.router, 2);

    // Warm both slices, then kill shard 1.
    for block in &blocks {
        let (status, _) = one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(block)));
        assert_eq!(status, 200);
    }
    let mut shards = fleet.shards;
    shards.remove(1).shutdown();

    // Shard 1's slice: 503 naming the dead shard, not a hang or a
    // misrouted answer.
    let (status, body) =
        one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(&blocks[1])));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("shard 1 unavailable"), "{body}");

    // Shard 0's slice keeps answering.
    let (status, body) =
        one_shot(fleet.router.addr(), &post("/v1/predict", &predict_body(&blocks[0])));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("prediction"), "{body}");

    // Aggregated readyz turns 503 and pins the blame on shard 1.
    let (status, body) = one_shot(fleet.router.addr(), &get("/readyz"));
    assert_eq!(status, 503, "{body}");
    assert!(body.contains(r#""ready":false"#), "{body}");

    // The up gauge for shard 1 drops to 0; shard 0 stays 1.
    let (status, text) = one_shot(fleet.router.addr(), &get("/metrics"));
    assert_eq!(status, 200);
    assert!(text.contains("comet_shard_up{shard=\"0\"} 1"), "{text}");
    assert!(text.contains("comet_shard_up{shard=\"1\"} 0"), "{text}");

    for server in shards {
        server.shutdown();
    }
    fleet.router.shutdown();
}
