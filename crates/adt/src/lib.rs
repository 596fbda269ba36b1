//! # sbcc-adt — atomic data types and operation semantics
//!
//! This crate implements the semantic layer of *Semantics-Based Concurrency
//! Control: Beyond Commutativity* (Badrinath & Ramamritham): operation
//! specifications, the formal notions of **commutativity** (Definition 2)
//! and **recoverability** (Definitions 1 and 3), parameter-dependent
//! compatibility tables (the paper's `Yes` / `Yes-SP` / `Yes-DP` / `No`
//! entries), and the concrete atomic data types the paper analyses:
//!
//! * [`Page`] — a read/write object (Tables I and II),
//! * [`Stack`] — push / pop / top (Tables III and IV),
//! * [`Set`] — insert / delete / member (Tables V and VI),
//! * [`TableObject`] — keyed insert / delete / lookup / size / modify
//!   (Tables VII and VIII),
//!
//! plus two extension types that exercise the same machinery:
//! [`Counter`] (increment / decrement / read) and [`FifoQueue`]
//! (enqueue / dequeue / front).
//!
//! The crate also provides [`AbstractObject`], a stateless object whose
//! conflict behaviour is driven entirely by a (possibly randomly generated)
//! [`ConflictTable`]; this is the "abstract data type model" used in the
//! paper's simulation study (Section 5.5.2), where each object has four
//! operations and `P_c` commutative / `P_r` recoverable entries.
//!
//! ## Semantics, not syntax
//!
//! Every static table shipped here is validated (in unit and property tests)
//! against the *formal definitions*: [`semantics::check_commutative`]
//! evaluates Definition 2 and [`semantics::check_recoverable`] evaluates
//! Definition 1 over sampled states, and the tests assert that whenever a
//! table admits a pair of operations the definition holds for every sampled
//! state. Tables are allowed to be conservative (say `No` when a
//! state-dependent analysis could say yes) — the paper makes the same choice
//! ("we have restricted ourselves to state-independent, but
//! parameter-dependent notions").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_obj;
pub mod access;
pub mod catalogue;
pub mod codec;
pub mod compat;
pub mod counter;
pub mod op;
pub mod page;
pub mod queue;
pub mod semantics;
pub mod set;
pub mod spec;
pub mod stack;
pub mod table;
pub mod value;

pub use abstract_obj::AbstractObject;
pub use access::AccessSet;
pub use catalogue::AdtType;
pub use compat::{Compatibility, CompatibilityTable, ConflictTable, TableEntry};
pub use counter::{Counter, CounterOp};
pub use op::{AdtOp, OpCall, OpResult};
pub use page::{Page, PageOp};
pub use queue::{FifoQueue, QueueOp};
pub use set::{Set, SetOp};
pub use spec::{AdtObject, AdtSpec, SemanticObject};
pub use stack::{Stack, StackOp};
pub use table::{TableObject, TableOp};
pub use value::Value;
