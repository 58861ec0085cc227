//! Relational values and keys.
//!
//! Reactors encapsulate state "abstracted using relations" (§2.1 of the
//! paper). The storage layer stores tuples of [`Value`]s; primary and
//! secondary indexes are ordered on [`Key`]s, a totally ordered subset of
//! values (floats are excluded from keys so that ordering is total and
//! hashing well-defined).

use std::cmp::Ordering;
use std::fmt;

/// A single relational value stored inside a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE-754 floating point (monetary amounts, risk figures, ...).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean flag (e.g. the `settled` column of the exchange example).
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Returns the integer stored in this value.
    ///
    /// # Panics
    /// Panics if the value is not an [`Value::Int`]. Workload procedures use
    /// this accessor on columns whose type is fixed by the schema, so a
    /// mismatch is a programming error, not a runtime condition.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// Returns the float stored in this value, widening integers.
    ///
    /// # Panics
    /// Panics if the value is neither a float nor an integer.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected Float, found {other:?}"),
        }
    }

    /// Returns the string stored in this value.
    ///
    /// # Panics
    /// Panics if the value is not a string.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(v) => v,
            other => panic!("expected Str, found {other:?}"),
        }
    }

    /// Returns the boolean stored in this value.
    ///
    /// # Panics
    /// Panics if the value is not a boolean.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected Bool, found {other:?}"),
        }
    }

    /// True if this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Converts the value into a [`Key`] if it belongs to the orderable
    /// subset (integers, strings, booleans). Returns `None` for floats and
    /// NULL.
    pub fn to_key(&self) -> Option<Key> {
        match self {
            Value::Int(v) => Some(Key::Int(*v)),
            Value::Str(v) => Some(Key::Str(v.clone())),
            Value::Bool(v) => Some(Key::Bool(*v)),
            Value::Float(_) | Value::Null => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A totally ordered, hashable key value used by primary and secondary
/// indexes and by the OCC layer's deterministic lock ordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Boolean key component.
    Bool(bool),
    /// Integer key component.
    Int(i64),
    /// String key component.
    Str(String),
    /// Composite key made of multiple components (e.g. TPC-C order lines are
    /// keyed by `(o_id, ol_number)`).
    Composite(Vec<Key>),
}

impl Key {
    /// Builds a composite key from parts.
    pub fn composite<I: IntoIterator<Item = Key>>(parts: I) -> Key {
        Key::Composite(parts.into_iter().collect())
    }

    /// Converts the key back into a plain value (composites are not
    /// representable as a single value and return NULL).
    pub fn to_value(&self) -> Value {
        match self {
            Key::Int(v) => Value::Int(*v),
            Key::Str(v) => Value::Str(v.clone()),
            Key::Bool(v) => Value::Bool(*v),
            Key::Composite(_) => Value::Null,
        }
    }
}

impl From<i64> for Key {
    fn from(v: i64) -> Self {
        Key::Int(v)
    }
}
impl From<i32> for Key {
    fn from(v: i32) -> Self {
        Key::Int(v as i64)
    }
}
impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key::Int(v as i64)
    }
}
impl From<usize> for Key {
    fn from(v: usize) -> Self {
        Key::Int(v as i64)
    }
}
impl From<&str> for Key {
    fn from(v: &str) -> Self {
        Key::Str(v.to_owned())
    }
}
impl From<String> for Key {
    fn from(v: String) -> Self {
        Key::Str(v)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Int(v) => write!(f, "{v}"),
            Key::Str(v) => write!(f, "{v}"),
            Key::Bool(v) => write!(f, "{v}"),
            Key::Composite(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Orders two values for predicate evaluation (`ORDER BY`, range filters on
/// non-key columns). NULL sorts first; mixed-type comparisons order by type
/// tag, mirroring the behaviour of the key ordering.
pub fn compare_values(a: &Value, b: &Value) -> Ordering {
    fn rank(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Null, Value::Null) => Ordering::Equal,
        _ => rank(a).cmp(&rank(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_and_accessors() {
        let v = Value::from(42i64);
        assert_eq!(v.as_int(), 42);
        assert_eq!(v.as_float(), 42.0);
        assert_eq!(v.to_key(), Some(Key::Int(42)));
    }

    #[test]
    fn string_and_bool_accessors() {
        assert_eq!(Value::from("abc").as_str(), "abc");
        assert!(Value::from(true).as_bool());
        assert!(Value::Null.is_null());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_type_mismatch() {
        Value::from("oops").as_int();
    }

    #[test]
    fn float_has_no_key_representation() {
        assert_eq!(Value::Float(1.5).to_key(), None);
        assert_eq!(Value::Null.to_key(), None);
    }

    #[test]
    fn key_ordering_is_total_within_type() {
        assert!(Key::Int(1) < Key::Int(2));
        assert!(Key::Str("a".into()) < Key::Str("b".into()));
        let c1 = Key::composite([Key::Int(1), Key::Int(5)]);
        let c2 = Key::composite([Key::Int(1), Key::Int(9)]);
        assert!(c1 < c2);
    }

    #[test]
    fn key_to_value_roundtrip() {
        assert_eq!(Key::Int(7).to_value(), Value::Int(7));
        assert_eq!(Key::Str("x".into()).to_value(), Value::Str("x".into()));
        assert_eq!(Key::Bool(true).to_value(), Value::Bool(true));
    }

    #[test]
    fn compare_values_handles_mixed_numeric() {
        assert_eq!(
            compare_values(&Value::Int(2), &Value::Float(2.0)),
            Ordering::Equal
        );
        assert_eq!(
            compare_values(&Value::Int(1), &Value::Float(1.5)),
            Ordering::Less
        );
        assert_eq!(compare_values(&Value::Null, &Value::Int(0)), Ordering::Less);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(
            Key::composite([Key::Int(1), Key::Str("a".into())]).to_string(),
            "(1,a)"
        );
    }
}
