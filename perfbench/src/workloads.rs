//! The four workloads: what each deploys, what its generators send, and why
//! it exists. Sizes and rates are constants here so that two runs of the
//! benchmark always mean the same thing.

use std::path::Path;
use std::sync::atomic::AtomicI64;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reactdb_client::{AckLevel, WireClient};
use reactdb_common::{CheckpointConfig, DeploymentConfig, DurabilityConfig, TracingConfig, Value};
use reactdb_engine::ReactDB;
use reactdb_server::{Server, ServerConfig};
use reactdb_workloads::tpcc::{TpccGenerator, TpccScale};
use reactdb_workloads::{smallbank, tpcc, ycsb};

use crate::driver::{Invocation, Session};

/// SmallBank customers (one reactor each).
pub const SMALLBANK_CUSTOMERS: usize = 10_000;
/// Fixed offered load of the durable workload, requests per second over all
/// connections. Saturated durable throughput does not repeat run to run; a
/// fixed rate well below it does.
pub const DURABLE_RATE_PER_S: u64 = 2_000;
/// Group-commit period of the durable workload.
pub const GROUP_COMMIT_MS: u64 = 5;
/// Checkpoints that must complete during every durable pass (a run is four
/// passes). The bytes-logged trigger is sized to fire once, about 70% into
/// the pass: with a checkpoint in every one-second window, a window's p99 is
/// whatever that checkpoint's stall happened to be, and p99 does not repeat.
pub const MIN_CHECKPOINTS_PER_PASS: u64 = 1;
/// Loaded keys per YCSB-E shard.
pub const YCSB_KEYS_PER_SHARD: usize = 100_000;
/// Sizes the bytes-logged checkpoint trigger: a SmallBank request logs 68
/// redo bytes on average, so a trigger of 48 bytes per request of the pass
/// fires once, about 70% in. An epoch-count trigger would not do: durable
/// acks make the server force group commits, each of which advances the
/// epoch, so epochs pass at a rate the load decides.
const TRIGGER_BYTES_PER_REQUEST: u64 = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SmallbankWireClosed,
    SmallbankWireDurable,
    TpccEmbedded,
    YcsbEEmbedded,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub why: &'static str,
    /// Replies slower than this miss the workload's latency limit.
    pub limit: Duration,
}

pub const ALL: [Workload; 4] = [
    Workload {
        kind: Kind::SmallbankWireClosed,
        name: "smallbank.wire.closed",
        why: "tiny requests over TCP, validation ack, durability off: time is \
              codec, server worker poll, executor hop, reply; wal does nothing",
        limit: Duration::from_millis(10),
    },
    Workload {
        kind: Kind::SmallbankWireDurable,
        name: "smallbank.wire.durable",
        why: "same mix at a fixed 2000 req/s open loop, every request \
              durable-acked: latency is group commit, fsync and checkpoint stalls",
        limit: Duration::from_millis(100),
    },
    Workload {
        kind: Kind::TpccEmbedded,
        name: "tpcc.embedded",
        why: "the paper's headline mix in process: large txns, scans, remote \
              sub-txns, 2PC; client, server and wal see no calls",
        limit: Duration::from_millis(250),
    },
    Workload {
        kind: Kind::YcsbEEmbedded,
        name: "ycsb_e.embedded",
        why: "95% range scans beside 5% inserts on tables every executor shares: \
              the same storage/txn layers as tpcc, used differently",
        limit: Duration::from_millis(10),
    },
];

impl Kind {
    pub fn over_wire(self) -> bool {
        matches!(self, Kind::SmallbankWireClosed | Kind::SmallbankWireDurable)
    }

    pub fn durable(self) -> bool {
        self == Kind::SmallbankWireDurable
    }
}

/// Deployment of `kind` on `nproc` executors. `log_dir` is the durable
/// workload's fresh log directory; `run_ms` (warm-up plus measurement)
/// sizes its checkpoint trigger.
pub fn config(
    kind: Kind,
    nproc: usize,
    traced: bool,
    log_dir: Option<&Path>,
    run_ms: u64,
) -> DeploymentConfig {
    let tracing = if traced {
        TracingConfig::default()
    } else {
        TracingConfig::off()
    };
    let base = match kind {
        Kind::YcsbEEmbedded => DeploymentConfig::shared_everything_without_affinity(nproc),
        _ => DeploymentConfig::shared_nothing(nproc),
    }
    .with_tracing(tracing);
    if !kind.durable() {
        return base;
    }
    let dir = log_dir.expect("the durable workload needs a log directory");
    let trigger = DURABLE_RATE_PER_S * run_ms / 1_000 * TRIGGER_BYTES_PER_REQUEST;
    base.with_durability(
        DurabilityConfig::epoch_sync(dir.to_string_lossy()).with_interval_ms(GROUP_COMMIT_MS),
    )
    .with_checkpoint(CheckpointConfig::manual().with_max_log_bytes(trigger))
}

/// A booted, loaded database with one session per generator thread.
pub struct Deployed {
    pub db: Arc<ReactDB>,
    pub server: Option<Server>,
    pub sessions: Vec<Session>,
}

/// Boot + load + server start + connect: everything `setup_s` times.
pub fn deploy(kind: Kind, nproc: usize, config: DeploymentConfig) -> Result<Deployed, String> {
    let db = match kind {
        Kind::SmallbankWireClosed | Kind::SmallbankWireDurable => {
            ReactDB::boot(smallbank::spec(SMALLBANK_CUSTOMERS), config)
        }
        Kind::TpccEmbedded => ReactDB::boot(tpcc::spec(nproc), config),
        Kind::YcsbEEmbedded => ReactDB::boot(ycsb::range_spec(nproc), config),
    };
    match kind {
        Kind::SmallbankWireClosed | Kind::SmallbankWireDurable => {
            smallbank::load(&db, SMALLBANK_CUSTOMERS)
        }
        Kind::TpccEmbedded => tpcc::load(&db, TpccScale::standard(nproc)),
        Kind::YcsbEEmbedded => ycsb::load_range(&db, nproc, YCSB_KEYS_PER_SHARD),
    }
    .map_err(|e| format!("load failed: {e}"))?;
    let db = Arc::new(db);
    if !kind.over_wire() {
        let sessions = (0..nproc).map(|_| Session::Embedded(db.client())).collect();
        return Ok(Deployed {
            db,
            server: None,
            sessions,
        });
    }
    let server = Server::start(Arc::clone(&db), ServerConfig::default().with_workers(1))
        .map_err(|e| format!("server start failed: {e}"))?;
    let ack = if kind.durable() {
        AckLevel::Durable
    } else {
        AckLevel::Validated
    };
    let sessions = (0..nproc)
        .map(|_| {
            WireClient::connect(server.local_addr()).map(|client| Session::Wire { client, ack })
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect failed: {e}"))?;
    Ok(Deployed {
        db,
        server: Some(server),
        sessions,
    })
}

/// Reboots the durable workload's database from its log directory.
pub fn recover(config: DeploymentConfig) -> Result<ReactDB, String> {
    ReactDB::recover(smallbank::spec(SMALLBANK_CUSTOMERS), config).map_err(|e| e.to_string())
}

/// State the generator threads of one run share.
pub struct Shared {
    tpcc: TpccGenerator,
    ycsb_insert_seqs: Vec<AtomicI64>,
    nproc: usize,
}

impl Shared {
    pub fn new(nproc: usize) -> Arc<Self> {
        Arc::new(Self {
            tpcc: TpccGenerator::standard(TpccScale::standard(nproc)),
            ycsb_insert_seqs: ycsb::e_insert_seqs(nproc),
            nproc,
        })
    }
}

/// The request generator of thread `thread`: its inputs depend on `seed`
/// and `thread` only (YCSB-E insert ids also on the interleaving, because
/// the shards' insert counters are shared so that ids never collide).
pub fn generator(
    kind: Kind,
    seed: u64,
    thread: usize,
    shared: Arc<Shared>,
) -> impl FnMut() -> Invocation + Send {
    let mut rng =
        StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (thread as u64 + 1));
    move || match kind {
        Kind::SmallbankWireClosed | Kind::SmallbankWireDurable => {
            smallbank_mix(&mut rng, SMALLBANK_CUSTOMERS)
        }
        Kind::TpccEmbedded => {
            let inv = shared.tpcc.next(thread, &mut rng);
            Invocation {
                reactor: tpcc::warehouse_name(inv.warehouse),
                proc: inv.proc,
                args: inv.args,
            }
        }
        Kind::YcsbEEmbedded => {
            let (reactor, proc, args) = ycsb::e_mix_invocation(
                &mut rng,
                shared.nproc,
                YCSB_KEYS_PER_SHARD,
                &shared.ycsb_insert_seqs,
            );
            Invocation {
                reactor,
                proc,
                args,
            }
        }
    }
}

/// The six-procedure SmallBank mix: 25% balance, 25% deposit_checking, 25%
/// transact_saving, 10% write_check, 5% amalgamate, 10% transfer. The two
/// two-customer procedures always name two different customers.
pub fn smallbank_mix(rng: &mut StdRng, customers: usize) -> Invocation {
    let src = rng.gen_range(0..customers);
    let other = |rng: &mut StdRng| {
        let dst = rng.gen_range(0..customers - 1);
        smallbank::customer_name(if dst >= src { dst + 1 } else { dst })
    };
    let reactor = smallbank::customer_name(src);
    let (proc, args) = match rng.gen_range(0..100u32) {
        0..=24 => ("balance", vec![]),
        25..=49 => (
            "deposit_checking",
            vec![Value::Float(rng.gen_range(1.0..100.0))],
        ),
        50..=74 => (
            "transact_saving",
            vec![Value::Float(rng.gen_range(-20.0..100.0))],
        ),
        75..=84 => ("write_check", vec![Value::Float(rng.gen_range(1.0..50.0))]),
        85..=89 => ("amalgamate", vec![Value::Str(other(rng))]),
        _ => (
            "transfer",
            vec![
                Value::Str(reactor.clone()),
                Value::Str(other(rng)),
                Value::Float(rng.gen_range(1.0..10.0)),
                Value::Bool(false),
            ],
        ),
    };
    Invocation {
        reactor,
        proc,
        args,
    }
}

/// Digest of every customer's total balance, read through ordinary
/// `balance` transactions. Equal digests mean equal balances everywhere.
pub fn balances_digest(db: &ReactDB) -> Result<u64, String> {
    let client = db.client();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..SMALLBANK_CUSTOMERS {
        let total = client
            .invoke(&smallbank::customer_name(i), "balance", vec![])
            .map_err(|e| format!("balance of customer {i}: {e}"))?;
        for byte in total.as_float().to_bits().to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    Ok(digest)
}
