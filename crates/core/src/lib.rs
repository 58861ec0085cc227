//! The reactor programming model (the paper's primary contribution).
//!
//! A *relational actor* — reactor — is an application-defined logical actor
//! that encapsulates state abstracted as relations (§2.1). Declarative
//! queries are supported only on a single reactor; state on other reactors is
//! reached exclusively through asynchronous function calls that return
//! futures, while the runtime guarantees serializability of the resulting
//! root transactions.
//!
//! This crate defines everything an application (or a benchmark workload)
//! needs in order to *write* reactor programs, independent of how they are
//! executed:
//!
//! * [`ReactorType`], [`ReactorDatabaseSpec`] — declaration of reactor types
//!   (relation schemas + procedures) and of the named reactors of an
//!   application (§2.2.1),
//! * [`Procedure`], [`ProcedureRegistry`] — registered stored procedures,
//! * [`ReactorFuture`] — the promise returned by an asynchronous call,
//! * [`ReactorCtx`] — the execution context handed to procedures: declarative
//!   operations on the current reactor's relations and `call` for
//!   cross-reactor invocations (§2.2.2),
//! * [`ActiveSet`] — the dynamic intra-transaction safety condition (§2.2.4),
//! * [`costmodel`] — the fork-join latency cost model of Figure 3 (§2.4),
//! * [`history`] — the conflict-serializability formalism of §2.3 and the
//!   projection of reactor-model histories into the classic transactional
//!   model (Theorem 2.7).
//!
//! The two runtimes that *execute* reactor programs live elsewhere:
//! `reactdb-engine` (real threads over real storage) and `reactdb-sim`
//! (deterministic virtual-time simulation of deployments).

pub mod context;
pub mod costmodel;
pub mod future;
pub mod history;
pub mod model;
pub mod safety;

pub use context::{CallBackend, ReactorCtx};
pub use future::{FulfillHook, FutureWriter, PublishWaker, ReactorFuture};
pub use model::{Procedure, ProcedureRegistry, ReactorDatabaseSpec, ReactorType};
pub use safety::ActiveSet;
