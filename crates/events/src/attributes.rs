//! Event payloads: attribute/value pairs.
//!
//! Primitive events carry domain data (stock quote, player position, …) as a
//! small ordered set of named attributes. The eSPICE load shedder itself never
//! inspects these values — it only uses event type and window position — but
//! the CEP pattern predicates (e.g. "change is positive", "distance below
//! threshold") and the dataset generators do.

use std::fmt;

/// A single attribute value.
///
/// The variants cover everything the synthetic datasets and queries need:
/// numbers, booleans and short strings.
///
/// # Example
///
/// ```
/// use espice_events::AttributeValue;
///
/// let price = AttributeValue::from(182.5);
/// assert_eq!(price.as_f64(), Some(182.5));
/// assert_eq!(price.as_str(), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AttributeValue {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean flag.
    Bool(bool),
    /// A short string (symbol, player name, …).
    Text(String),
}

impl AttributeValue {
    /// Returns the value as an `i64` if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttributeValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as an `f64` if it is numeric (int or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttributeValue::Float(v) => Some(*v),
            AttributeValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the value as a `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttributeValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttributeValue::Text(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

impl fmt::Display for AttributeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttributeValue::Int(v) => write!(f, "{v}"),
            AttributeValue::Float(v) => write!(f, "{v}"),
            AttributeValue::Bool(v) => write!(f, "{v}"),
            AttributeValue::Text(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for AttributeValue {
    fn from(v: i64) -> Self {
        AttributeValue::Int(v)
    }
}

impl From<f64> for AttributeValue {
    fn from(v: f64) -> Self {
        AttributeValue::Float(v)
    }
}

impl From<bool> for AttributeValue {
    fn from(v: bool) -> Self {
        AttributeValue::Bool(v)
    }
}

impl From<&str> for AttributeValue {
    fn from(v: &str) -> Self {
        AttributeValue::Text(v.to_owned())
    }
}

impl From<String> for AttributeValue {
    fn from(v: String) -> Self {
        AttributeValue::Text(v)
    }
}

/// An ordered collection of named attribute values.
///
/// Events typically carry 1–4 attributes, so a small `Vec` of pairs is both
/// smaller and faster than a hash map.
///
/// # Example
///
/// ```
/// use espice_events::{Attributes, AttributeValue};
///
/// let mut attrs = Attributes::new();
/// attrs.set("change", AttributeValue::from(0.75));
/// attrs.set("symbol", AttributeValue::from("IBM"));
/// assert_eq!(attrs.get_f64("change"), Some(0.75));
/// assert_eq!(attrs.len(), 2);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attributes {
    entries: Vec<(String, AttributeValue)>,
}

impl Attributes {
    /// Creates an empty attribute set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an attribute set with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Attributes { entries: Vec::with_capacity(capacity) }
    }

    /// Sets `name` to `value`, replacing any existing value of the same name.
    pub fn set(&mut self, name: &str, value: AttributeValue) {
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value;
        } else {
            self.entries.push((name.to_owned(), value));
        }
    }

    /// Gets the value stored under `name`.
    pub fn get(&self, name: &str) -> Option<&AttributeValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Convenience accessor: numeric value of `name`.
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(AttributeValue::as_f64)
    }

    /// Convenience accessor: integer value of `name`.
    pub fn get_i64(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(AttributeValue::as_i64)
    }

    /// Convenience accessor: boolean value of `name`.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(AttributeValue::as_bool)
    }

    /// Convenience accessor: string value of `name`.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(AttributeValue::as_str)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the attribute set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttributeValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }
}

impl FromIterator<(String, AttributeValue)> for Attributes {
    fn from_iter<I: IntoIterator<Item = (String, AttributeValue)>>(iter: I) -> Self {
        let mut attrs = Attributes::new();
        for (name, value) in iter {
            attrs.set(&name, value);
        }
        attrs
    }
}

impl Extend<(String, AttributeValue)> for Attributes {
    fn extend<I: IntoIterator<Item = (String, AttributeValue)>>(&mut self, iter: I) {
        for (name, value) in iter {
            self.set(&name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(AttributeValue::from(3i64).as_i64(), Some(3));
        assert_eq!(AttributeValue::from(3i64).as_f64(), Some(3.0));
        assert_eq!(AttributeValue::from(2.5).as_f64(), Some(2.5));
        assert_eq!(AttributeValue::from(true).as_bool(), Some(true));
        assert_eq!(AttributeValue::from("abc").as_str(), Some("abc"));
        assert_eq!(AttributeValue::from("abc").as_f64(), None);
    }

    #[test]
    fn set_replaces_existing_value() {
        let mut attrs = Attributes::new();
        attrs.set("price", AttributeValue::from(1.0));
        attrs.set("price", AttributeValue::from(2.0));
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs.get_f64("price"), Some(2.0));
    }

    #[test]
    fn missing_attribute_is_none() {
        let attrs = Attributes::new();
        assert!(attrs.get("nope").is_none());
        assert!(attrs.is_empty());
    }

    #[test]
    fn typed_accessors() {
        let mut attrs = Attributes::new();
        attrs.set("n", AttributeValue::from(4i64));
        attrs.set("flag", AttributeValue::from(false));
        attrs.set("name", AttributeValue::from("player"));
        assert_eq!(attrs.get_i64("n"), Some(4));
        assert_eq!(attrs.get_bool("flag"), Some(false));
        assert_eq!(attrs.get_str("name"), Some("player"));
        assert_eq!(attrs.get_f64("name"), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut attrs: Attributes =
            vec![("a".to_owned(), AttributeValue::from(1i64))].into_iter().collect();
        attrs.extend(vec![("b".to_owned(), AttributeValue::from(2i64))]);
        assert_eq!(attrs.get_i64("a"), Some(1));
        assert_eq!(attrs.get_i64("b"), Some(2));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut attrs = Attributes::new();
        attrs.set("x", AttributeValue::from(1i64));
        attrs.set("y", AttributeValue::from(2i64));
        let names: Vec<_> = attrs.iter().map(|(n, _)| n.to_owned()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn display_of_values() {
        assert_eq!(AttributeValue::from(3i64).to_string(), "3");
        assert_eq!(AttributeValue::from(true).to_string(), "true");
        assert_eq!(AttributeValue::from("hi").to_string(), "hi");
    }
}
