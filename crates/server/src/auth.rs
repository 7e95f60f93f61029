//! Authentication hooks for the connection handshake.
//!
//! The server calls its configured [`AuthHook`] with the token from the
//! client's `Hello` frame. Rejection closes the connection with a typed
//! `auth` error frame; the engine itself never sees unauthenticated
//! statements.

use scidb_core::error::{Error, Result};

/// Decides whether a connection's handshake credential is acceptable.
pub trait AuthHook: Send + Sync {
    /// Returns `Ok(())` to admit the connection, or an
    /// [`Error::Auth`] to reject it.
    fn authenticate(&self, token: &str) -> Result<()>;
}

/// Accepts every connection (the default for local/test servers).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl AuthHook for AllowAll {
    fn authenticate(&self, _token: &str) -> Result<()> {
        Ok(())
    }
}

/// Accepts only connections presenting one fixed shared secret.
#[derive(Debug, Clone)]
pub struct TokenAuth {
    expected: String,
}

impl TokenAuth {
    /// A hook that accepts exactly `expected`.
    pub fn new(expected: impl Into<String>) -> Self {
        TokenAuth {
            expected: expected.into(),
        }
    }
}

impl AuthHook for TokenAuth {
    fn authenticate(&self, token: &str) -> Result<()> {
        if token == self.expected {
            Ok(())
        } else {
            Err(Error::auth("invalid token"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_all_accepts_anything() {
        assert!(AllowAll.authenticate("").is_ok());
        assert!(AllowAll.authenticate("whatever").is_ok());
    }

    #[test]
    fn token_auth_matches_exactly() {
        let hook = TokenAuth::new("s3cret");
        assert!(hook.authenticate("s3cret").is_ok());
        let err = hook.authenticate("guess").unwrap_err();
        assert_eq!(err.code().name(), "auth");
        assert!(hook.authenticate("").is_err());
    }
}
