//! Umbrella crate re-exporting the whole workspace: the hardware simulator
//! substrates, the message-passing layer, the task runtime, the kernels and
//! the interference benchmark suite reproducing ICPP'21
//! "Interferences between Communications and Computations in Distributed HPC
//! Systems" (Denis, Jeannot, Swartvagher).

pub use freq;
pub use interference;
pub use kernels;
pub use memsim;
pub use mpisim;
pub use netsim;
pub use simcore;
pub use taskrt;
pub use topology;
