//! [`TimedBackend`]: the `AbdBackend` / `CasBackend` decorator.

use super::{Kind, TraceCtx, NO_OP};
use shmem_algorithms::backend::{AbdBackend, CasBackend};
use shmem_algorithms::{Key, Tag, Value};
use std::fmt;
use std::sync::Arc;

/// Delegates every backend call to the wrapped backend with a span around
/// it — the seat `CorruptingBackend<B>` occupies, used for timing instead
/// of tampering. Spans inherit their operation from the enclosing
/// `on_message`.
#[derive(Clone)]
pub struct TimedBackend<B> {
    inner: B,
    ctx: Arc<TraceCtx>,
}

impl<B> TimedBackend<B> {
    /// Decorates `inner`, recording into `ctx`.
    pub fn new(inner: B, ctx: Arc<TraceCtx>) -> TimedBackend<B> {
        TimedBackend { inner, ctx }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: fmt::Debug> fmt::Debug for TimedBackend<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<B: AbdBackend> AbdBackend for TimedBackend<B> {
    fn load(&self, key: Key) -> Option<(Tag, Value)> {
        let _span = self.ctx.span(Kind::Load, NO_OP);
        self.inner.load(key)
    }

    fn store_if_newer(&mut self, key: Key, tag: Tag, value: Value) -> bool {
        let _span = self.ctx.span(Kind::StoreIfNewer, NO_OP);
        self.inner.store_if_newer(key, tag, value)
    }

    fn keys_held(&self) -> usize {
        self.inner.keys_held()
    }

    fn digest_with(&self, initial: Value) -> u64 {
        self.inner.digest_with(initial)
    }
}

impl<B: CasBackend> CasBackend for TimedBackend<B> {
    fn max_finalized(&self, key: Key) -> Tag {
        let _span = self.ctx.span(Kind::MaxFinalized, NO_OP);
        self.inner.max_finalized(key)
    }

    fn pre_write(&mut self, key: Key, tag: Tag, share: Vec<u8>) {
        let _span = self.ctx.span(Kind::PreWrite, NO_OP);
        self.inner.pre_write(key, tag, share);
    }

    fn finalize(&mut self, key: Key, tag: Tag) {
        let _span = self.ctx.span(Kind::Finalize, NO_OP);
        self.inner.finalize(key, tag);
    }

    fn read_get(&mut self, key: Key, tag: Tag) -> Option<Option<Vec<u8>>> {
        let _span = self.ctx.span(Kind::ReadGet, NO_OP);
        self.inner.read_get(key, tag)
    }

    fn versions_held(&self, key: Key) -> usize {
        self.inner.versions_held(key)
    }

    fn keys_held(&self) -> usize {
        self.inner.keys_held()
    }

    fn total_versions(&self) -> usize {
        self.inner.total_versions()
    }

    fn total_tags(&self) -> usize {
        self.inner.total_tags()
    }

    fn digest_with(&self, me: u32) -> u64 {
        self.inner.digest_with(me)
    }
}
