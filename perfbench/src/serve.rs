//! The serve workload: the x264 snapshot served by an in-process
//! `fsam-server` over loopback to one client connection (closed loop).
//!
//! One op is a round of [`BATCHES_PER_ROUND`] batches of [`BATCH`]
//! queries plus one in-band `Reload` of the same snapshot bytes. Most
//! batches replay a hot working set (the alias-cache hit path); a fixed
//! [`FRESH_PER_ROUND`] of them are fresh `may_alias` pairs (the cold
//! engine path). The workload seed drives the working set, the fresh
//! pairs, where in the round they fall, and where the reload lands.

use fsam::{Fsam, PhaseConfig, Pipeline};
use fsam_ir::parse::parse_module;
use fsam_ir::{Module, StmtId, VarId};
use fsam_query::{AnalysisDb, Answer, Query, QueryEngine};
use fsam_server::{Client, ProtoError, Server, ServerHandle, ServerState};

use crate::check::reference_answer;
use crate::trace::Tracer;
use crate::Rng;

/// Queries per batch.
pub const BATCH: usize = 512;
/// Batches per round (one op).
pub const BATCHES_PER_ROUND: usize = 64;
/// Batches per round made of fresh `may_alias` pairs.
pub const FRESH_PER_ROUND: usize = 8;
/// Batches in the hot working set.
pub const HOT_BATCHES: usize = 8;

/// One batch of a planned round.
pub enum Batch {
    /// The `i`-th batch of the hot working set.
    Hot(usize),
    /// Fresh `may_alias` pairs.
    Fresh(Vec<Query>),
}

/// A planned round: its batches, and after which batch the reload goes.
pub struct Round {
    /// The batches, in send order.
    pub batches: Vec<Batch>,
    /// The reload follows the batch at this index.
    pub reload_after: usize,
}

impl Round {
    /// Queries in the round.
    pub fn queries(&self) -> u64 {
        (self.batches.len() * BATCH) as u64
    }
}

/// A running server with its client, working set and reference answers.
pub struct Serve {
    fsam: Fsam,
    snapshot: Vec<u8>,
    handle: ServerHandle,
    client: Client,
    hot: Vec<Query>,
    hot_expected: Vec<Answer>,
    /// Variables with a non-empty points-to set.
    pointers: Vec<VarId>,
    rng: Rng,
    /// The in-process mirror engine of traced rounds, built on first use.
    mirror: Option<QueryEngine>,
    mirror_hits: u64,
    mirror_lookups: u64,
}

impl Serve {
    /// Analyzes `fir`, starts the server on the encoded snapshot, connects
    /// one client and draws the hot working set from `seed`.
    pub fn start(fir: &str, seed: u64) -> Serve {
        let module = parse_module(fir).expect("benchmark FIR parses");
        let fsam = Pipeline::for_module(&module).run(PhaseConfig::full());
        let snapshot = AnalysisDb::capture(&module, &fsam).to_bytes();
        let state = ServerState::from_snapshot_bytes(&snapshot).expect("a fresh snapshot decodes");
        let handle = Server::spawn(state, "127.0.0.1:0").expect("bind a loopback port");
        let client = Client::connect(handle.addr()).expect("connect to the server");

        let pointers: Vec<VarId> = module
            .var_ids()
            .filter(|&v| !fsam.result.pt_var(v).is_empty())
            .collect();
        let mut rng = Rng::new(seed);
        let hot = hot_set(&module, &pointers, &mut rng);
        let hot_expected = hot.iter().map(|&q| reference_answer(&fsam, q)).collect();
        Serve {
            fsam,
            snapshot,
            handle,
            client,
            hot,
            hot_expected,
            pointers,
            rng,
            mirror: None,
            mirror_hits: 0,
            mirror_lookups: 0,
        }
    }

    /// Size of the served snapshot.
    pub fn snapshot_bytes(&self) -> usize {
        self.snapshot.len()
    }

    /// Draws the next round from the seeded stream.
    pub fn plan(&mut self) -> Round {
        let mut fresh_at = vec![false; BATCHES_PER_ROUND];
        let mut placed = 0;
        while placed < FRESH_PER_ROUND {
            let i = self.rng.below(BATCHES_PER_ROUND);
            if !fresh_at[i] {
                fresh_at[i] = true;
                placed += 1;
            }
        }
        let batches = fresh_at
            .into_iter()
            .map(|fresh| {
                if fresh {
                    let n = self.pointers.len();
                    Batch::Fresh(
                        (0..BATCH)
                            .map(|_| {
                                let p = self.pointers[self.rng.below(n)];
                                let q = self.pointers[self.rng.below(n)];
                                Query::MayAlias(p, q)
                            })
                            .collect(),
                    )
                } else {
                    Batch::Hot(self.rng.below(HOT_BATCHES))
                }
            })
            .collect();
        Round {
            batches,
            reload_after: self.rng.below(BATCHES_PER_ROUND),
        }
    }

    /// Sends the round over the wire and returns every batch's answers.
    pub fn run(&mut self, round: &Round) -> Result<Vec<Vec<Answer>>, ProtoError> {
        let mut answers = Vec::with_capacity(round.batches.len());
        for (i, b) in round.batches.iter().enumerate() {
            let queries = batch_queries(&self.hot, b);
            answers.push(self.client.query_many(queries)?);
            if i == round.reload_after {
                self.client.reload(&self.snapshot)?;
            }
        }
        Ok(answers)
    }

    /// The traced round: each batch also runs through an in-process
    /// engine over the same snapshot (`query.engine`), beside the client
    /// round trip (`server.roundtrip`); the reload is timed on the wire
    /// (`server.reload`) and as a local decode (`query.decode`).
    pub fn run_traced(
        &mut self,
        round: &Round,
        t: &mut Tracer,
    ) -> Result<Vec<Vec<Answer>>, ProtoError> {
        let mut mirror = self.mirror.take().unwrap_or_else(|| self.decode());
        let mut answers = Vec::with_capacity(round.batches.len());
        let mut outcome = Ok(());
        for (i, b) in round.batches.iter().enumerate() {
            let queries = batch_queries(&self.hot, b);
            std::hint::black_box(t.time("query.engine", || mirror.query_many(queries)));
            match t.time("server.roundtrip", || self.client.query_many(queries)) {
                Ok(a) => answers.push(a),
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
            if i == round.reload_after {
                if let Err(e) = t.time("server.reload", || self.client.reload(&self.snapshot)) {
                    outcome = Err(e);
                    break;
                }
                let stats = mirror.cache_stats();
                self.mirror_hits += stats.hits;
                self.mirror_lookups += stats.hits + stats.misses;
                mirror = t.time("query.decode", || self.decode());
            }
        }
        self.mirror = Some(mirror);
        outcome.map(|()| answers)
    }

    fn decode(&self) -> QueryEngine {
        QueryEngine::new(AnalysisDb::from_bytes(&self.snapshot).expect("a fresh snapshot decodes"))
    }

    /// Hit share of the mirror engine's alias cache over every completed
    /// engine lifetime of the traced rounds.
    pub fn mirror_hit_ratio(&self) -> f64 {
        if self.mirror_lookups == 0 {
            0.0
        } else {
            self.mirror_hits as f64 / self.mirror_lookups as f64
        }
    }

    /// Counts the answers of `round` that differ from the reference
    /// answers computed from the analysis result.
    pub fn mismatches(&self, round: &Round, answers: &[Vec<Answer>]) -> usize {
        let mut bad = round.batches.len().abs_diff(answers.len()) * BATCH;
        for (b, got) in round.batches.iter().zip(answers) {
            bad += match b {
                Batch::Hot(h) => {
                    crate::check::mismatches(got, &self.hot_expected[h * BATCH..(h + 1) * BATCH])
                }
                Batch::Fresh(q) => {
                    let expected: Vec<Answer> =
                        q.iter().map(|&q| reference_answer(&self.fsam, q)).collect();
                    crate::check::mismatches(got, &expected)
                }
            };
        }
        bad
    }

    /// Replaces a broken connection with a fresh one.
    pub fn reconnect(&mut self) {
        self.client = Client::connect(self.handle.addr()).expect("reconnect to the server");
    }

    /// Errors the server has counted.
    pub fn server_errors(&self) -> u64 {
        self.handle.metrics().errors()
    }

    /// Shuts the server down in-band and waits for its accept loop.
    pub fn stop(mut self) {
        if self.client.shutdown().is_err() {
            self.handle.shutdown();
        }
        self.handle.join();
    }
}

fn batch_queries<'a>(hot: &'a [Query], b: &'a Batch) -> &'a [Query] {
    match b {
        Batch::Hot(i) => &hot[i * BATCH..(i + 1) * BATCH],
        Batch::Fresh(q) => q,
    }
}

/// The hot working set: [`HOT_BATCHES`] × [`BATCH`] queries, half
/// `may_alias` over pointers, a quarter `points_to`, a quarter `mhp`.
fn hot_set(module: &Module, pointers: &[VarId], rng: &mut Rng) -> Vec<Query> {
    let stmts: Vec<StmtId> = module.stmt_ids().collect();
    let pick = |rng: &mut Rng| pointers[rng.below(pointers.len())];
    (0..HOT_BATCHES * BATCH)
        .map(|_| match rng.below(4) {
            0 => Query::PointsTo(pick(rng)),
            1 | 2 => Query::MayAlias(pick(rng), pick(rng)),
            _ => Query::Mhp(stmts[rng.below(stmts.len())], stmts[rng.below(stmts.len())]),
        })
        .collect()
}
