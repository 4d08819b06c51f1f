//! Attribute predicates on primitive events.
//!
//! Pattern steps may constrain not only the event type but also the payload —
//! e.g. Q2 only matches quotes whose `change` attribute is positive (rising)
//! or negative (falling), and Q1's defend events are pre-filtered by distance.

use espice_events::Event;
use std::fmt;

/// Comparison operators usable in attribute predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `attribute == value`
    Eq,
    /// `attribute != value`
    Ne,
    /// `attribute < value`
    Lt,
    /// `attribute <= value`
    Le,
    /// `attribute > value`
    Gt,
    /// `attribute >= value`
    Ge,
}

impl CmpOp {
    fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Eq => (lhs - rhs).abs() < f64::EPSILON,
            CmpOp::Ne => (lhs - rhs).abs() >= f64::EPSILON,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over an event's attributes.
///
/// Predicates are a small expression tree: numeric comparisons on a named
/// attribute, string equality, and the usual boolean connectives.
///
/// # Example
///
/// ```
/// use espice_cep::{Predicate, CmpOp};
/// use espice_events::{Event, EventType, Timestamp, AttributeValue};
///
/// let rising = Predicate::attr_cmp("change", CmpOp::Gt, 0.0);
/// let event = Event::builder(EventType::from_index(0), Timestamp::ZERO)
///     .attr("change", AttributeValue::from(0.4))
///     .build();
/// assert!(rising.eval(&event));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Predicate {
    /// Always true (useful as a neutral element).
    #[default]
    True,
    /// Numeric comparison against a named attribute. Evaluates to `false` if
    /// the attribute is missing or not numeric.
    AttrCmp {
        /// Attribute name.
        attr: String,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand side constant.
        value: f64,
    },
    /// String equality against a named attribute. Evaluates to `false` if the
    /// attribute is missing or not text.
    AttrEqText {
        /// Attribute name.
        attr: String,
        /// Expected value.
        value: String,
    },
    /// Boolean attribute must be `true`. Evaluates to `false` if missing.
    AttrIsTrue {
        /// Attribute name.
        attr: String,
    },
    /// Conjunction of two predicates.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction of two predicates.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation of a predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Builds a numeric comparison predicate.
    pub fn attr_cmp(attr: &str, op: CmpOp, value: f64) -> Self {
        Predicate::AttrCmp { attr: attr.to_owned(), op, value }
    }

    /// Builds a string equality predicate.
    pub fn attr_eq_text(attr: &str, value: &str) -> Self {
        Predicate::AttrEqText { attr: attr.to_owned(), value: value.to_owned() }
    }

    /// Builds a boolean-flag predicate.
    pub fn attr_is_true(attr: &str) -> Self {
        Predicate::AttrIsTrue { attr: attr.to_owned() }
    }

    /// Conjunction with another predicate.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction with another predicate.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// Evaluates the predicate against an event.
    pub fn eval(&self, event: &Event) -> bool {
        match self {
            Predicate::True => true,
            Predicate::AttrCmp { attr, op, value } => {
                event.attrs().get_f64(attr).is_some_and(|lhs| op.eval(lhs, *value))
            }
            Predicate::AttrEqText { attr, value } => {
                event.attrs().get_str(attr).is_some_and(|lhs| lhs == value)
            }
            Predicate::AttrIsTrue { attr } => event.attrs().get_bool(attr).unwrap_or(false),
            Predicate::And(a, b) => a.eval(event) && b.eval(event),
            Predicate::Or(a, b) => a.eval(event) || b.eval(event),
            Predicate::Not(inner) => !inner.eval(event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{AttributeValue, EventType, Timestamp};

    fn event_with(attr: &str, value: AttributeValue) -> Event {
        Event::builder(EventType::from_index(0), Timestamp::ZERO).attr(attr, value).build()
    }

    #[test]
    fn numeric_comparisons() {
        let e = event_with("change", AttributeValue::from(0.5));
        assert!(Predicate::attr_cmp("change", CmpOp::Gt, 0.0).eval(&e));
        assert!(Predicate::attr_cmp("change", CmpOp::Ge, 0.5).eval(&e));
        assert!(Predicate::attr_cmp("change", CmpOp::Le, 0.5).eval(&e));
        assert!(Predicate::attr_cmp("change", CmpOp::Eq, 0.5).eval(&e));
        assert!(Predicate::attr_cmp("change", CmpOp::Ne, 0.4).eval(&e));
        assert!(!Predicate::attr_cmp("change", CmpOp::Lt, 0.5).eval(&e));
    }

    #[test]
    fn missing_or_mistyped_attribute_is_false() {
        let e = event_with("name", AttributeValue::from("IBM"));
        assert!(!Predicate::attr_cmp("change", CmpOp::Gt, 0.0).eval(&e));
        assert!(!Predicate::attr_cmp("name", CmpOp::Gt, 0.0).eval(&e));
        assert!(!Predicate::attr_is_true("name").eval(&e));
    }

    #[test]
    fn text_and_bool_predicates() {
        let e = Event::builder(EventType::from_index(0), Timestamp::ZERO)
            .attr("symbol", AttributeValue::from("IBM"))
            .attr("leading", AttributeValue::from(true))
            .build();
        assert!(Predicate::attr_eq_text("symbol", "IBM").eval(&e));
        assert!(!Predicate::attr_eq_text("symbol", "AAPL").eval(&e));
        assert!(Predicate::attr_is_true("leading").eval(&e));
    }

    #[test]
    fn boolean_connectives() {
        let e = event_with("x", AttributeValue::from(3.0));
        let gt1 = Predicate::attr_cmp("x", CmpOp::Gt, 1.0);
        let lt2 = Predicate::attr_cmp("x", CmpOp::Lt, 2.0);
        assert!(gt1.clone().or(lt2.clone()).eval(&e));
        assert!(!gt1.clone().and(lt2.clone()).eval(&e));
        assert!(lt2.not().eval(&e));
        assert!(Predicate::True.eval(&e));
        assert_eq!(Predicate::default(), Predicate::True);
    }

    #[test]
    fn cmp_op_display() {
        assert_eq!(CmpOp::Ge.to_string(), ">=");
        assert_eq!(CmpOp::Ne.to_string(), "!=");
    }
}
