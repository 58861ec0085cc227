//! The shipped `reactdb-server` binary restarted on its own `--wal-dir`.
//!
//! A restart is recovery: every `Durable`-acked transaction of a run that
//! was `SIGKILL`ed mid-load is present after the restart, and nothing
//! else is except the requests that were in flight at the kill. A
//! directory whose recovery refuses it ends the process with exit code 1
//! and an error naming the file, never a panic; `--follow` on a directory
//! that already holds state is a usage error (exit 2).
//!
//! Every test waits for the server's `listening on` line under a deadline
//! instead of sleeping.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reactdb_client::WireClient;
use reactdb_common::{AckLevel, Value};
use reactdb_workloads::smallbank::{customer_name, INITIAL_BALANCE};

const SERVER: &str = env!("CARGO_BIN_EXE_reactdb-server");
const CUSTOMERS: usize = 64;
/// Closed-loop connections in the kill test; each owns one customer.
const CONNECTIONS: usize = 4;
/// Durable acks to collect before the kill.
const ACKS_BEFORE_KILL: usize = 200;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reactdb-restart-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The server command for a SmallBank node durable in `dir/wal`.
fn server(dir: &Path) -> Command {
    let mut cmd = Command::new(SERVER);
    cmd.args(["--addr", "127.0.0.1:0", "--workload", "smallbank"])
        .args(["--scale", &CUSTOMERS.to_string()])
        .args(["--executors", "2", "--net-workers", "1"])
        .arg("--wal-dir")
        .arg(dir.join("wal"));
    cmd
}

/// A running server process, the address it printed, and the thread
/// reading its stdout (it ends when the process does).
struct Node {
    child: Child,
    addr: SocketAddr,
    stdout: JoinHandle<()>,
}

impl Node {
    /// Starts the server on `dir` and waits for its `listening on` line;
    /// its stderr goes to `dir/<tag>.stderr`.
    fn start(dir: &Path, tag: &str) -> Node {
        let stderr_path = dir.join(format!("{tag}.stderr"));
        let mut child = server(dir)
            .stdout(Stdio::piped())
            .stderr(File::create(&stderr_path).unwrap())
            .spawn()
            .expect("spawn reactdb-server");
        let stdout = child.stdout.take().unwrap();
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("listening on ") {
                    let _ = tx.send(addr.to_string());
                }
            }
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => Node {
                child,
                addr: addr.parse().expect("listening address"),
                stdout,
            },
            Err(_) => {
                let _ = child.kill();
                let status = child.wait().unwrap();
                panic!(
                    "reactdb-server never listened ({status}); stderr:\n{}",
                    fs::read_to_string(&stderr_path).unwrap_or_default()
                );
            }
        }
    }

    /// `SIGKILL`s the process and reaps it.
    fn kill(mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
        self.stdout.join().unwrap();
    }
}

/// Runs the server on `dir` with `extra` flags until it exits by itself;
/// `--run-secs 0` bounds a run that wrongly starts serving.
fn run_to_exit(dir: &Path, extra: &[&str]) -> Output {
    server(dir)
        .args(extra)
        .args(["--run-secs", "0"])
        .output()
        .expect("run reactdb-server")
}

/// Starts a server on `dir`, commits one durable deposit and kills it,
/// leaving WAL state behind.
fn leave_state(dir: &Path) {
    let node = Node::start(dir, "seed");
    let client = WireClient::connect(node.addr).unwrap();
    client
        .invoke_with(
            &customer_name(0),
            "deposit_checking",
            vec![Value::Float(1.0)],
            AckLevel::Durable,
        )
        .expect("durable deposit");
    drop(client);
    node.kill();
}

/// What one closed-loop connection saw before the kill.
struct Connection {
    /// Sum of the deposits acknowledged as durable.
    acked: f64,
    /// The deposit whose reply the kill cut off, if any.
    in_flight: Option<f64>,
}

#[test]
fn a_sigkilled_server_restarts_on_its_wal_dir_with_every_durable_ack() {
    let dir = temp_dir("kill");
    let node = Node::start(&dir, "first");

    // Closed-loop durable deposits, one connection per customer, every
    // amount distinct; each ack is reported to this thread.
    let (acks, acked) = mpsc::channel::<()>();
    let load: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let client = WireClient::connect(node.addr).expect("connect");
            let acks = acks.clone();
            std::thread::spawn(move || {
                let mut seen = Connection {
                    acked: 0.0,
                    in_flight: None,
                };
                for i in 0.. {
                    let amount = (i * CONNECTIONS + c + 1) as f64;
                    let reply = client.invoke_with(
                        &customer_name(c),
                        "deposit_checking",
                        vec![Value::Float(amount)],
                        AckLevel::Durable,
                    );
                    if reply.is_err() {
                        seen.in_flight = Some(amount);
                        break;
                    }
                    seen.acked += amount;
                    let _ = acks.send(());
                }
                seen
            })
        })
        .collect();
    drop(acks);
    let deadline = Instant::now() + Duration::from_secs(60);
    for n in 0..ACKS_BEFORE_KILL {
        let left = deadline.saturating_duration_since(Instant::now());
        if acked.recv_timeout(left).is_err() {
            node.kill();
            panic!("only {n} durable acks before the deadline");
        }
    }
    node.kill();
    let seen: Vec<Connection> = load.into_iter().map(|t| t.join().unwrap()).collect();

    let node = Node::start(&dir, "restarted");
    let client = WireClient::connect(node.addr).expect("connect after restart");
    for (c, seen) in seen.iter().enumerate() {
        let balance = client
            .invoke(&customer_name(c), "balance", vec![])
            .expect("balance after restart");
        let Value::Float(balance) = balance else {
            panic!("balance is {balance:?}");
        };
        let deposited = balance - 2.0 * INITIAL_BALANCE;
        let allowed = [Some(seen.acked), seen.in_flight.map(|a| seen.acked + a)];
        assert!(
            allowed.contains(&Some(deposited)),
            "customer {c}: {deposited} deposited after the restart, but {} was acked \
             and {:?} was in flight",
            seen.acked,
            seen.in_flight,
        );
    }
    // The recovered node is a primary: it takes new durable writes.
    client
        .invoke_with(
            &customer_name(0),
            "deposit_checking",
            vec![Value::Float(0.5)],
            AckLevel::Durable,
        )
        .expect("durable deposit after the restart");
    drop(client);
    node.kill();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_durable_marker_exits_1_naming_the_file() {
    let dir = temp_dir("damaged");
    leave_state(&dir);
    let marker = dir.join("wal").join("durable_epoch");
    let mut bytes = fs::read(&marker).expect("the run left a durable marker");
    bytes[10] ^= 0x01;
    fs::write(&marker, bytes).unwrap();

    let out = run_to_exit(&dir, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains(&marker.display().to_string()),
        "the refusal names the marker; stderr:\n{stderr}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn follow_on_a_wal_dir_with_state_exits_2() {
    let dir = temp_dir("follow");
    leave_state(&dir);
    let out = run_to_exit(&dir, &["--follow", "127.0.0.1:9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    let _ = fs::remove_dir_all(&dir);
}
