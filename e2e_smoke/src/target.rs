//! The three ways a statement reaches the engine — an in-process
//! [`Session`], and a [`Client`] over TCP — behind one call, and the
//! checksum of an answer's canonical serialization.

use scidb_core::array::Array;
use scidb_query::{Session, StmtResult};
use scidb_server::{Client, RemoteResult};

/// What a statement answered.
#[derive(Debug)]
pub enum Answer {
    Array(Array),
    /// DDL/DML acknowledgement.
    Done,
}

/// Checksum and size of an answer; equal answers have equal fingerprints on
/// every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    /// FNV-1a over the wire protocol's array encoding (schema, then every
    /// present cell in coordinate order); 0 for an acknowledgement.
    pub hash: u64,
    pub cells: u64,
}

impl Answer {
    pub fn cells(&self) -> u64 {
        match self {
            Answer::Array(a) => a.cell_count() as u64,
            Answer::Done => 0,
        }
    }

    pub fn fingerprint(&self) -> Fingerprint {
        match self {
            Answer::Array(a) => {
                let mut buf = Vec::new();
                scidb_server::proto::encode_array(&mut buf, a);
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for b in buf {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                Fingerprint {
                    hash,
                    cells: a.cell_count() as u64,
                }
            }
            Answer::Done => Fingerprint::default(),
        }
    }
}

/// Anything that takes AQL text and answers.
pub trait Target {
    fn exec(&mut self, text: &str) -> Result<Answer, String>;
}

/// Maps an in-process result to an [`Answer`].
pub fn local(r: scidb_core::Result<StmtResult>) -> Result<Answer, String> {
    match r.map_err(|e| e.to_string())? {
        StmtResult::Array(a) => Ok(Answer::Array(a)),
        StmtResult::Done(_) => Ok(Answer::Done),
        other => Err(format!("unexpected {} result", other.kind())),
    }
}

impl Target for Session {
    fn exec(&mut self, text: &str) -> Result<Answer, String> {
        let stmt = scidb_query::parse_one(text).map_err(|e| e.to_string())?;
        local(self.execute(stmt))
    }
}

impl Target for Client {
    fn exec(&mut self, text: &str) -> Result<Answer, String> {
        remote(self.execute(text))
    }
}

/// Maps a wire result to an [`Answer`].
pub fn remote(r: scidb_core::Result<RemoteResult>) -> Result<Answer, String> {
    match r.map_err(|e| e.to_string())? {
        RemoteResult::Array(a) => Ok(Answer::Array(a)),
        RemoteResult::Done(_) => Ok(Answer::Done),
        other => Err(format!("unexpected remote result {other:?}")),
    }
}
