//! The autograd engine's view of the cache: `pack` / `unpack`
//! (Algorithm 2) and the module hooks that track scopes, phases and
//! backward's consumption point.

use super::prefetch::Prefetcher;
use super::record::ScopeMeta;
use super::TensorCache;
use crate::placement::OffloadClass;
use ssdtrain_autograd::{ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo};
use ssdtrain_tensor::Tensor;

impl SavedTensorHooks for TensorCache {
    fn pack(&self, tensor: &Tensor) -> Packed {
        let mut st = self.state.lock();
        match self.store(&mut st, tensor, OffloadClass::Activation) {
            Some(id) => Packed::Opaque(id),
            None => Packed::Tensor(tensor.clone()),
        }
    }

    #[expect(
        clippy::panic,
        reason = "unpack of an unregistered id is an engine-integration bug, not a recoverable runtime failure"
    )]
    fn unpack(&self, packed: &Packed) -> Tensor {
        // Every unpack is a hook of the per-tensor prefetcher, a kept
        // tensor's too: a profiled step keeps modules the profiling step
        // offloaded, and their unpacks still mark the time.
        let per_tensor = matches!(self.prefetcher, Prefetcher::PerModule { .. });
        match packed {
            // Algorithm 2, line 20.
            Packed::Tensor(t) => {
                if per_tensor {
                    let mut guard = self.state.lock();
                    let st = &mut *guard;
                    self.backward_hook(st, st.current_mb, None);
                }
                t.clone()
            }
            Packed::Opaque(id) => {
                let mut guard = self.state.lock();
                let st = &mut *guard;
                if per_tensor {
                    self.backward_hook(st, st.current_mb, Some(*id));
                }
                self.consume(st, *id)
                    .unwrap_or_else(|| panic!("unpack of unknown record {id}"))
            }
        }
    }
}

impl ModuleHooks for TensorCache {
    fn forward_pre(&self, scope: &ScopeInfo) {
        let mut st = self.state.lock();
        if st.phase != Phase::Forward {
            return;
        }
        st.current_mb = scope.micro_batch;
        st.stack.push(scope.seq);
        let order = &mut st.pass(scope.micro_batch).order;
        let pos = order.len();
        order.push(scope.seq);
        // Only a profile names modules by path; a planned step asks the
        // plan once here, and every pack in the scope reads the answer.
        let path = if st.profiling {
            scope.path.clone()
        } else {
            String::new()
        };
        let meta = ScopeMeta {
            path,
            kept: st.plan.keeps(&scope.path),
            pos,
            records: st.spare_scope_records.take().unwrap_or_default(),
            enter: self.io.clock().now(),
            ..ScopeMeta::default()
        };
        st.scopes.insert(scope.seq, meta);
    }

    fn forward_post(&self, scope: &ScopeInfo) {
        let mut st = self.state.lock();
        if st.phase != Phase::Forward {
            return;
        }
        let now = self.io.clock().now();
        if let Some(meta) = st.scopes.get_mut(&scope.seq) {
            meta.fwd_secs = now.since(meta.enter);
        }
        if st.stack.last() == Some(&scope.seq) {
            st.stack.pop();
        }
    }

    fn backward_pre(&self, scope: &ScopeInfo) {
        // Backward stands at the scope's forward position (a profiling step
        // notes its deadline). The depth walk prefetches the nearest earlier
        // modules holding records (Section 3.3.2); depth > 1 keeps the read
        // channel busy across modules.
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mb = scope.micro_batch;
        let Some(pos) = st.scopes.get(&scope.seq).map(|m| m.pos) else {
            return;
        };
        self.note_deadline(st, scope.seq);
        match self.prefetcher {
            Prefetcher::Off => {}
            Prefetcher::PerModule { depth } => {
                self.start_pass(st, mb);
                self.backward_hook(st, mb, None);
                self.prefetch_before(st, mb, pos, depth);
            }
            Prefetcher::Groups { group, floor } => self.look_ahead(st, mb, pos, group, floor),
        }
    }

    fn backward_post(&self, scope: &ScopeInfo) {
        // Algorithm 2 lines 8–10: drop this scope from its records and
        // release records nobody references.
        let mut st = self.state.lock();
        st.for_scope_records(scope.seq, |st, id| {
            let Some(rec) = st.records.get_mut(&id) else {
                return;
            };
            rec.scopes.remove(scope.seq);
            if rec.scopes.is_empty() {
                self.release_record(st, id);
            }
        });
    }

    fn phase_changed(&self, phase: Phase) {
        let mut st = self.state.lock();
        if st.phase == Phase::Forward && phase == Phase::Backward {
            self.end_forward(&mut st);
        }
        st.phase = phase;
    }
}
