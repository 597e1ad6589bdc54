//! # revpebble-graph
//!
//! Dependency DAGs, logic-network parsing, straight-line programs and
//! workload generators for the `revpebble` reproduction of *"Reversible
//! Pebbling Game for Quantum Memory Management"* (Meuli et al., DATE
//! 2019).
//!
//! The reversible pebbling game is played on a [`Dag`] whose nodes are
//! operations of a decomposed computation (the paper's Fig. 2). This crate
//! provides every way the paper obtains such DAGs:
//!
//! - [`bench_format`]: the ISCAS *.bench* netlist format (Table I's
//!   `c17 … c7552` rows), with the real `c17` embedded in [`data`];
//! - [`slp`]: straight-line programs over modular arithmetic (Fig. 5's
//!   Edwards/Kummer programs and Section IV-B's `H` operator);
//! - [`generators`]: the Fig. 2 example, Fig. 6's AND tree, chains, trees,
//!   deterministic ISCAS-proxy DAGs and random fuzzing DAGs.
//!
//! ## Example
//!
//! ```
//! use revpebble_graph::{Dag, Op};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dag = Dag::new();
//! let x = dag.add_input("x");
//! let y = dag.add_input("y");
//! let g = dag.add_node("g", Op::And, [x, y])?;
//! dag.mark_output(g);
//! assert_eq!(dag.evaluate_outputs(&[true, true]), vec![true]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bench_format;
pub mod builtins;
pub mod dag;
pub mod data;
pub mod generators;
mod iso;
pub mod json;
pub mod network;
pub mod op;
pub mod slp;

pub use bench_format::{parse_bench, ParseBenchError};
pub use builtins::{builtin_dag, BUILTIN_DAG_NAMES};
pub use dag::{Dag, DagError, InputId, Node, NodeId, Source};
pub use json::{json_escape, parse_json, DagJsonError, JsonError, JsonValue, MAX_JSON_DAG_NODES};
pub use op::Op;
pub use slp::{Slp, SlpError, SlpOp};
