//! End-to-end daemon tests over real loopback TCP: control ops, batched
//! queries matching the in-process engine, hot snapshot swap under load,
//! and in-band error recovery.

use std::sync::Arc;

use fsam::Fsam;
use fsam_ir::parse::parse_module;
use fsam_ir::Module;
use fsam_query::{AnalysisDb, Query, QueryEngine};
use fsam_server::proto::{read_frame, write_frame, Response};
use fsam_server::{wire_diags, Client, ProtoError, Server, ServerHandle, ServerState};

const SRC_A: &str = r#"
    global x
    global y
    global z
    func foo() {
    entry:
      p2 = &x
      q = &y
      store p2, q
      ret
    }
    func main() {
    entry:
      p = &x
      r = &z
      t = fork foo()
      store p, r
      c = load p
      ret
    }
"#;

/// Same names, different flow: `r` points at `y` here, not `z`.
const SRC_B: &str = r#"
    global x
    global y
    global z
    func main() {
    entry:
      p = &x
      r = &y
      c = load p
      ret
    }
"#;

fn analyzed(src: &str) -> (Module, Fsam) {
    let m = parse_module(src).unwrap();
    let fsam = Fsam::analyze(&m);
    (m, fsam)
}

fn spawn_a() -> (Module, Fsam, ServerHandle) {
    let (m, fsam) = analyzed(SRC_A);
    let engine = QueryEngine::from_fsam(&m, &fsam);
    let handle = Server::spawn(ServerState::new(engine), "127.0.0.1:0").unwrap();
    (m, fsam, handle)
}

#[test]
fn ping_stats_shutdown_control_plane() {
    let (_m, _fsam, handle) = spawn_a();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .unwrap_or_else(|| panic!("missing stat {k}"))
            .1
    };
    assert_eq!(get("swaps"), 0);
    assert!(get("vars") > 0);
    assert!(get("connections") >= 1);
    // Frames counted so far: the ping and the stats request itself.
    assert!(get("frames") >= 2);
    client.shutdown().unwrap();
    handle.join(); // returns only because the shutdown was in-band
}

#[test]
fn remote_answers_are_identical_to_the_in_process_engine() {
    let (m, fsam, handle) = spawn_a();
    let engine = QueryEngine::from_fsam(&m, &fsam);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Every variable pair + every statement pair through both paths.
    let vars: Vec<_> = m.var_ids().collect();
    let stmts: Vec<_> = m.stmts().map(|(s, _)| s).collect();
    let mut slab = Vec::new();
    for &p in &vars {
        slab.push(Query::PointsTo(p));
        for &q in &vars {
            slab.push(Query::MayAlias(p, q));
        }
    }
    for &a in &stmts {
        for &b in &stmts {
            slab.push(Query::Mhp(a, b));
        }
    }
    for o in 0..engine.db().obj_names().len() {
        slab.push(Query::AliasesOf(fsam_pts::MemId::new(o as u32)));
    }
    let remote = client.query_many(&slab).unwrap();
    let local = engine.query_many(&slab);
    assert_eq!(remote, local);

    // Name-based ops match too.
    assert_eq!(
        client.pt_names("main", "c").unwrap().unwrap(),
        engine
            .pt_names("main", "c")
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        client.var_named("main", "p").unwrap(),
        engine.var_named("main", "p")
    );
    assert_eq!(client.var_named("main", "nope").unwrap(), None);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn four_concurrent_clients_all_see_consistent_answers() {
    let (m, fsam, handle) = spawn_a();
    let engine = Arc::new(QueryEngine::from_fsam(&m, &fsam));
    let vars: Vec<_> = m.var_ids().collect();
    let mut slab = Vec::new();
    for &p in &vars {
        for &q in &vars {
            slab.push(Query::MayAlias(p, q));
        }
    }
    let expected = engine.query_many(&slab);
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let slab = &slab;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..50 {
                    assert_eq!(&client.query_many(slab).unwrap(), expected);
                }
            });
        }
    });
    assert!(handle.metrics().queries() >= 4 * 50 * slab.len() as u64);
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join();
}

#[test]
fn reload_swaps_snapshots_without_dropping_readers() {
    let (m_a, fsam_a, handle) = spawn_a();
    let engine_a = QueryEngine::from_fsam(&m_a, &fsam_a);
    let (m_b, fsam_b) = analyzed(SRC_B);
    let db_b = AnalysisDb::capture(&m_b, &fsam_b);
    let engine_b = QueryEngine::new(AnalysisDb::from_bytes(&db_b.to_bytes()).unwrap());

    // Before the swap: snapshot A's answer. (Resolve ids per snapshot —
    // ids are snapshot-relative.)
    let mut client = Client::connect(handle.addr()).unwrap();
    assert!(client.var_named("main", "r").unwrap().is_some());
    let names_a = client.pt_names("main", "r").unwrap().unwrap();
    assert_eq!(
        names_a,
        engine_a
            .pt_names("main", "r")
            .unwrap()
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(names_a, ["z"]);

    // A second client keeps querying while the first pushes snapshot B.
    let addr = handle.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader_stop = Arc::clone(&stop);
    let (answered_tx, answered_rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let mut served = 0u64;
        while !reader_stop.load(std::sync::atomic::Ordering::Relaxed) {
            // Either snapshot must answer: never an error, never a torn
            // frame, and always one of the two valid answers.
            let names = c.pt_names("main", "r").unwrap().unwrap();
            assert!(
                names == ["z"] || names == ["y"],
                "impossible answer {names:?}"
            );
            served += 1;
            if served == 1 {
                answered_tx.send(()).unwrap();
            }
        }
        served
    });

    // Reload only once the reader has had an answer back: otherwise a
    // slow-starting reader could see `stop` before sending anything.
    answered_rx
        .recv()
        .expect("the reader thread died before its first answer");
    let (vars, objects) = client.reload(&db_b.to_bytes()).unwrap();
    assert_eq!(vars as usize, engine_b.db().var_names().len());
    assert_eq!(objects as usize, engine_b.db().obj_names().len());

    // After the swap: snapshot B's answer, on a fresh resolve.
    let names_b = client.pt_names("main", "r").unwrap().unwrap();
    assert_eq!(names_b, ["y"]);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let served = reader.join().unwrap();
    assert!(served > 0, "the reader thread never got a query through");
    assert_eq!(handle.metrics().swaps(), 1);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn corrupt_reload_is_rejected_in_band_and_the_old_engine_survives() {
    let (_m, _fsam, handle) = spawn_a();
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client.reload(b"not a snapshot").unwrap_err();
    assert!(matches!(err, ProtoError::Remote(_)), "{err:?}");
    // Same connection still serves, and nothing was swapped.
    assert_eq!(client.pt_names("main", "r").unwrap().unwrap(), ["z"]);
    assert_eq!(handle.metrics().swaps(), 0);
    assert!(handle.metrics().errors() >= 1);
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let (_m, _fsam, handle) = spawn_a();
    // Raw socket: send a garbage payload in a well-formed frame.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut stream, &[99, 1, 2, 3]).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert!(matches!(resp, Response::Error(_)), "{resp:?}");
    // The same connection still answers a well-formed request.
    write_frame(&mut stream, &fsam_server::Request::Ping.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
    assert_eq!(resp, Response::Pong);
    drop(stream);
    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join();
}

#[test]
fn diagnostics_are_served_and_filtered() {
    let (m, fsam) = analyzed(SRC_A);
    let engine = QueryEngine::from_fsam(&m, &fsam);
    let cx = fsam_lint::LintContext::new(&m, &fsam, &engine);
    let report = fsam_lint::Registry::with_default_checkers().run(&cx);
    let diags = wire_diags(&report);
    let total = diags.len();
    assert!(total > 0, "SRC_A has a fork race; expected diagnostics");

    let engine = QueryEngine::from_fsam(&m, &fsam);
    let handle = Server::spawn(ServerState::with_diags(engine, diags), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.diagnostics("").unwrap().len(), total);
    let races = client.diagnostics("FL0001").unwrap();
    assert!(races.iter().all(|d| d.code == "FL0001"));
    assert!(!races.is_empty());
    assert_eq!(client.diagnostics("FL9999").unwrap(), vec![]);

    // A pushed snapshot carries no diagnostics: the op answers empty, not
    // stale.
    let db = AnalysisDb::capture(&m, &fsam);
    client.reload(&db.to_bytes()).unwrap();
    assert_eq!(client.diagnostics("").unwrap(), vec![]);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn local_swap_path_matches_the_wire_path() {
    let (m_a, fsam_a, handle) = spawn_a();
    let _ = (&m_a, &fsam_a);
    let (m_b, fsam_b) = analyzed(SRC_B);
    let engine_b = QueryEngine::from_fsam(&m_b, &fsam_b);
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.pt_names("main", "r").unwrap().unwrap(), ["z"]);
    handle.swap(ServerState::new(engine_b));
    assert_eq!(client.pt_names("main", "r").unwrap().unwrap(), ["y"]);
    assert_eq!(handle.metrics().swaps(), 1);
    client.shutdown().unwrap();
    handle.join();
}
