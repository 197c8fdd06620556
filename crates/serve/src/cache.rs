//! The shared compiled-circuit cache.
//!
//! Compiling a circuit — parsing, levelization, fault enumeration,
//! collapse — is pure per-circuit work; a server running many campaigns
//! over the same handful of circuits should pay it once. The cache maps a
//! **config fingerprint** to an `Arc<CompiledCircuit>`:
//!
//! - named circuits key as `name:<name>` — the registry (including an
//!   `RLS_BENCH_DIR` override, resolved at first compile) defines what
//!   the name means for the life of the process;
//! - uploads key as `netlist:<fnv64(source)>` — two clients uploading the
//!   same source share one compilation regardless of the label they
//!   chose, while any source change rekeys.
//!
//! Lookups never iterate the map (determinism hygiene); compilation runs
//! outside the lock so a slow upload cannot stall other campaigns'
//! cache hits, and a compile race is settled by first-insert-wins.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rls_fsim::CompiledCircuit;

use crate::protocol::CircuitRef;

/// Compiled circuits shared across concurrent campaigns.
#[derive(Debug, Default)]
pub struct CircuitCache {
    map: Mutex<HashMap<String, Arc<CompiledCircuit>>>,
}

impl CircuitCache {
    /// An empty cache.
    pub fn new() -> Self {
        CircuitCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<CompiledCircuit>>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cache key for a request (exposed so tests can assert sharing).
    pub fn key(circuit: &CircuitRef) -> String {
        match circuit {
            CircuitRef::Named(name) => format!("name:{name}"),
            CircuitRef::Upload { source, .. } => {
                format!("netlist:{:016x}", fnv1a(source.as_bytes()))
            }
        }
    }

    /// Resolves a request to a compiled circuit, compiling on first use.
    /// Errors are client-facing reject reasons.
    pub fn resolve(&self, circuit: &CircuitRef) -> Result<Arc<CompiledCircuit>, String> {
        let key = Self::key(circuit);
        if let Some(hit) = self.lock().get(&key) {
            return Ok(Arc::clone(hit));
        }
        let parsed = match circuit {
            CircuitRef::Named(name) => rls_benchmarks::by_name(name)
                .ok_or_else(|| format!("unknown circuit `{name}`"))?,
            CircuitRef::Upload { name, source } => rls_netlist::parse_bench(name, source)
                .map_err(|e| format!("netlist rejected: {e}"))?,
        };
        let compiled = Arc::new(
            CompiledCircuit::compile(parsed).map_err(|e| format!("netlist rejected: {e}"))?,
        );
        // First insert wins a compile race; both racers compiled the same
        // immutable inputs, so either value is interchangeable.
        let mut map = self.lock();
        let entry = map.entry(key).or_insert(compiled);
        Ok(Arc::clone(entry))
    }

    /// Number of cached compilations.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a, the same construction the resume fingerprint uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_circuits_are_compiled_once_and_shared() {
        let cache = CircuitCache::new();
        let a = cache.resolve(&CircuitRef::Named("s27".to_string())).unwrap();
        let b = cache.resolve(&CircuitRef::Named("s27".to_string())).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the compilation");
        assert_eq!(cache.len(), 1);
        assert_eq!(a.circuit().name(), "s27");
    }

    #[test]
    fn uploads_key_by_source_not_label() {
        let cache = CircuitCache::new();
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        let a = cache
            .resolve(&CircuitRef::Upload {
                name: "one".to_string(),
                source: src.to_string(),
            })
            .unwrap();
        let b = cache
            .resolve(&CircuitRef::Upload {
                name: "two".to_string(),
                source: src.to_string(),
            })
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same source, one compilation");
        assert_eq!(cache.len(), 1);
        let other = cache
            .resolve(&CircuitRef::Upload {
                name: "one".to_string(),
                source: "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n".to_string(),
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &other), "different source rekeys");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failures_are_reasons_not_cache_entries() {
        let cache = CircuitCache::new();
        let e = cache.resolve(&CircuitRef::Named("nope".to_string())).unwrap_err();
        assert!(e.contains("unknown circuit"), "{e}");
        let e = cache
            .resolve(&CircuitRef::Upload {
                name: "bad".to_string(),
                source: "y = NOT(\n".to_string(),
            })
            .unwrap_err();
        assert!(e.contains("netlist rejected"), "{e}");
        let e = cache
            .resolve(&CircuitRef::Upload {
                name: "cyclic".to_string(),
                source: "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(y, a)\n".to_string(),
            })
            .unwrap_err();
        assert!(e.contains("netlist rejected"), "{e}");
        assert!(cache.is_empty(), "failures leave no entries");
    }
}
