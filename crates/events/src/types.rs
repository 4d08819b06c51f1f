//! Event types and the type registry.
//!
//! eSPICE's utility model is keyed by *event type* and window position, so the
//! type of an event must be cheap to compare and to use as an index into the
//! utility table. Event types are therefore interned: the human-readable name
//! (e.g. the stock symbol `"IBM"` or the player event `"DF_7"`) is stored once
//! in a [`TypeRegistry`] and events carry only a compact [`EventType`] id.

use std::collections::HashMap;
use std::fmt;

/// A compact, interned identifier for an event type.
///
/// The inner index is dense (0, 1, 2, …) so it can be used directly as a row
/// index in the utility table `UT(T, P)`.
///
/// # Example
///
/// ```
/// use espice_events::TypeRegistry;
///
/// let mut registry = TypeRegistry::new();
/// let a = registry.intern("A");
/// let b = registry.intern("B");
/// assert_ne!(a, b);
/// assert_eq!(registry.intern("A"), a);
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventType(u32);

impl EventType {
    /// Creates an event type from a raw dense index.
    ///
    /// Prefer [`TypeRegistry::intern`]; this constructor exists for tests and
    /// for deserialisation of precomputed models.
    pub const fn from_index(index: u32) -> Self {
        EventType(index)
    }

    /// The dense index of this type (usable as a `UT` row).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` representation.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

impl From<u32> for EventType {
    fn from(raw: u32) -> Self {
        EventType(raw)
    }
}

/// Bidirectional mapping between event-type names and dense [`EventType`] ids.
///
/// The registry is append-only: once interned a name keeps its id for the
/// lifetime of the registry, which keeps utility-table rows stable across
/// model retraining.
///
/// # Example
///
/// ```
/// use espice_events::TypeRegistry;
///
/// let mut registry = TypeRegistry::new();
/// let ibm = registry.intern("IBM");
/// assert_eq!(registry.name(ibm), Some("IBM"));
/// assert_eq!(registry.lookup("IBM"), Some(ibm));
/// assert_eq!(registry.len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    names: Vec<String>,
    by_name: HashMap<String, EventType>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable id. Re-interning an existing name
    /// returns the previously assigned id.
    pub fn intern(&mut self, name: &str) -> EventType {
        if let Some(&ty) = self.by_name.get(name) {
            return ty;
        }
        let ty = EventType(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), ty);
        ty
    }

    /// Interns every name in `names`, in order, returning their ids.
    pub fn intern_all<'a, I>(&mut self, names: I) -> Vec<EventType>
    where
        I: IntoIterator<Item = &'a str>,
    {
        names.into_iter().map(|n| self.intern(n)).collect()
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<EventType> {
        self.by_name.get(name).copied()
    }

    /// The name associated with `ty`, if it was interned by this registry.
    pub fn name(&self, ty: EventType) -> Option<&str> {
        self.names.get(ty.index()).map(String::as_str)
    }

    /// Number of distinct types interned so far. This is the `M` dimension of
    /// the utility table.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no types have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(EventType, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (EventType, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (EventType(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut reg = TypeRegistry::new();
        let a1 = reg.intern("A");
        let a2 = reg.intern("A");
        assert_eq!(a1, a2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let mut reg = TypeRegistry::new();
        let ids = reg.intern_all(["x", "y", "z"]);
        assert_eq!(ids.iter().map(|t| t.index()).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn lookup_and_name_roundtrip() {
        let mut reg = TypeRegistry::new();
        let ty = reg.intern("STR");
        assert_eq!(reg.lookup("STR"), Some(ty));
        assert_eq!(reg.name(ty), Some("STR"));
        assert_eq!(reg.lookup("DF"), None);
        assert_eq!(reg.name(EventType::from_index(9)), None);
    }

    #[test]
    fn iter_preserves_interning_order() {
        let mut reg = TypeRegistry::new();
        reg.intern_all(["a", "b", "c"]);
        let names: Vec<_> = reg.iter().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_registry_reports_empty() {
        let reg = TypeRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.len(), 0);
    }

    #[test]
    fn display_shows_index() {
        assert_eq!(EventType::from_index(7).to_string(), "type#7");
    }
}
