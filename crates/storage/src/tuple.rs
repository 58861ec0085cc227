//! Rows of relational values.

use reactdb_common::{Key, Value};

use crate::schema::Schema;

/// A row: an ordered sequence of values matching a [`Schema`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Creates a tuple from anything convertible to values.
    pub fn of<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Self {
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// The raw values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to the raw values.
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn at(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Value of the named column resolved through `schema`.
    ///
    /// # Panics
    /// Panics when the column does not exist; workload code addresses
    /// columns that are fixed by its own schema definitions.
    pub fn get(&self, schema: &Schema, column: &str) -> &Value {
        let pos = schema
            .position_of(column)
            .unwrap_or_else(|| panic!("column {column} not in schema"));
        &self.values[pos]
    }

    /// Replaces the value of the named column resolved through `schema`.
    ///
    /// # Panics
    /// Panics when the column does not exist.
    pub fn set(&mut self, schema: &Schema, column: &str, value: impl Into<Value>) {
        let pos = schema
            .position_of(column)
            .unwrap_or_else(|| panic!("column {column} not in schema"));
        self.values[pos] = value.into();
    }

    /// Extracts the primary key of this tuple under `schema`.
    ///
    /// # Panics
    /// Panics if a key column holds a value with no key representation
    /// (float or NULL), which schema validation prevents for inserted rows.
    pub fn primary_key(&self, schema: &Schema) -> Key {
        let positions = schema.key_positions();
        if positions.len() == 1 {
            self.values[positions[0]]
                .to_key()
                .expect("primary key column must be orderable and non-null")
        } else {
            Key::Composite(
                positions
                    .iter()
                    .map(|p| {
                        self.values[*p]
                            .to_key()
                            .expect("primary key column must be orderable and non-null")
                    })
                    .collect(),
            )
        }
    }

    /// Extracts the key of a secondary index over the given column
    /// positions.
    pub fn index_key(&self, positions: &[usize]) -> Option<Key> {
        if positions.len() == 1 {
            self.values[positions[0]].to_key()
        } else {
            let mut parts = Vec::with_capacity(positions.len());
            for p in positions {
                parts.push(self.values[*p].to_key()?);
            }
            Some(Key::Composite(parts))
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    fn schema() -> Schema {
        Schema::of(
            &[
                ("w_id", ColumnType::Int),
                ("d_id", ColumnType::Int),
                ("name", ColumnType::Str),
            ],
            &["w_id", "d_id"],
        )
    }

    #[test]
    fn get_set_by_name() {
        let s = schema();
        let mut t = Tuple::of([Value::Int(1), Value::Int(2), Value::Str("x".into())]);
        assert_eq!(t.get(&s, "name"), &Value::Str("x".into()));
        t.set(&s, "name", "y");
        assert_eq!(t.get(&s, "name"), &Value::Str("y".into()));
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn composite_primary_key_extraction() {
        let s = schema();
        let t = Tuple::of([Value::Int(1), Value::Int(2), Value::Str("x".into())]);
        assert_eq!(
            t.primary_key(&s),
            Key::composite([Key::Int(1), Key::Int(2)])
        );
    }

    #[test]
    fn single_column_primary_key() {
        let s = Schema::of(
            &[("id", ColumnType::Int), ("v", ColumnType::Float)],
            &["id"],
        );
        let t = Tuple::of([Value::Int(9), Value::Float(1.0)]);
        assert_eq!(t.primary_key(&s), Key::Int(9));
    }

    #[test]
    fn index_key_returns_none_for_unorderable() {
        let t = Tuple::of([Value::Float(1.0), Value::Int(3)]);
        assert_eq!(t.index_key(&[0]), None);
        assert_eq!(t.index_key(&[1]), Some(Key::Int(3)));
        assert_eq!(
            t.index_key(&[1, 1]),
            Some(Key::composite([Key::Int(3), Key::Int(3)]))
        );
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn get_unknown_column_panics() {
        let s = schema();
        let t = Tuple::of([Value::Int(1), Value::Int(2), Value::Str("x".into())]);
        t.get(&s, "missing");
    }
}
