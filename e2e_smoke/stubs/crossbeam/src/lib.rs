//! Stand-in for the part of `crossbeam` the storage layer uses: a bounded
//! channel, which `std::sync::mpsc::sync_channel` already is.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, SyncSender as Sender};

    /// A channel that holds at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::sync_channel(cap)
    }
}
