//! Cooperative cancellation for long-running synthesis work.
//!
//! The serving path (`lsml-serve`) gives every request a deadline; deep in
//! the engine, [`Pipeline::run_fixpoint`](crate::opt::Pipeline::run_fixpoint)
//! rounds and batched candidate compiles are the units of work worth
//! interrupting. Threading a token argument through every pass signature
//! would churn the whole API for one caller, so the token rides a
//! thread-local instead: a caller wraps its work in [`with_token`] and the
//! engine polls [`cancelled`] at its natural pass boundaries.
//!
//! Two properties the engine relies on:
//!
//! - **Stickiness** — once a token reports cancelled it reports cancelled
//!   forever (a passed deadline latches the flag), so a check at the end of
//!   a pipeline can trust a check made at the start.
//! - **Partial results stay valid** — every exact pass is semantics-
//!   preserving, so work cut short between passes returns a graph that is
//!   merely less optimized, never wrong. Cancelled work must not be
//!   memoized though: the fixpoint and compile caches skip inserts when the
//!   active token has fired (a half-run pipeline proves nothing about
//!   convergence).
//!
//! The pool's fan-outs (`CompileBatch::compile_all`) re-install the caller's
//! token inside each closure, so cancellation crosses to the pool's threads
//! with the work.

use loom::sync::atomic::{AtomicBool, Ordering};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Inner {
    /// Latched by [`CancelToken::cancel`] or a passed deadline.
    fired: AtomicBool,
    /// Absolute deadline, if the token carries a budget.
    deadline: Option<Instant>,
}

/// A sticky, shareable cancellation token (clones share one state).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::build(None)
    }

    /// A token that fires at `deadline` (or earlier via explicit cancel).
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::build(Some(deadline))
    }

    /// A token that fires `budget` from now.
    pub fn with_budget(budget: Duration) -> CancelToken {
        CancelToken::build(Some(Instant::now() + budget))
    }

    fn build(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                fired: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// Fires the token; every clone observes it from now on.
    pub fn cancel(&self) {
        self.inner.fired.store(true, Ordering::Release);
    }

    /// Whether the token has fired (explicitly or by deadline). Sticky: a
    /// passed deadline latches the flag, so this never un-fires.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.fired.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                self.inner.fired.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// Time left before the deadline (None when the token has no deadline;
    /// zero once it passed). Schedulers use this to size sub-budgets.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

thread_local! {
    /// The token governing work on this thread, if any.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Restores the previously installed token when the scope ends — including
/// by panic, so a worker that catches an unwinding request does not leak the
/// request's token into unrelated work.
struct Restore(Option<CancelToken>);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Runs `f` with `token` installed as this thread's active cancellation
/// token; the previous token (if any) is restored afterwards, panics
/// included.
pub fn with_token<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(token.clone()));
    let _restore = Restore(prev);
    f()
}

/// The token installed on this thread, if any. Fan-outs capture this before
/// spawning and re-install it (via [`with_token`]) inside each closure.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether this thread's active token (if any) has fired. The engine's
/// pass-boundary poll: cheap enough for every pipeline pass and batch
/// candidate, absent tokens cost one thread-local read.
pub fn cancelled() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.is_cancelled()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_is_sticky_and_shared() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "sticky");
    }

    #[test]
    fn passed_deadline_fires_and_latches() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let far = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn with_token_installs_and_restores() {
        assert!(current().is_none());
        let outer = CancelToken::new();
        with_token(&outer, || {
            assert!(!cancelled());
            let inner = CancelToken::new();
            inner.cancel();
            with_token(&inner, || assert!(cancelled()));
            // The outer token is back after the nested scope.
            assert!(!cancelled());
        });
        assert!(current().is_none());
    }

    #[test]
    fn with_token_restores_across_panics() {
        let t = CancelToken::new();
        let r = std::panic::catch_unwind(|| with_token(&t, || panic!("boom")));
        assert!(r.is_err());
        assert!(current().is_none(), "token must not leak past the unwind");
    }

    #[test]
    fn no_token_means_not_cancelled() {
        assert!(!cancelled());
    }
}
