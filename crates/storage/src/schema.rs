//! Relation schemas encapsulated by reactors.
//!
//! A reactor type determines "the relation schemas encapsulated in the
//! reactor state" (§2.2.1). A [`Schema`] is an ordered list of named,
//! typed columns plus the positions of the primary-key columns.

use reactdb_common::{TxnError, Value};

/// Column data types. The storage layer is dynamically typed ([`Value`]);
/// the declared type is used for validation at insert time and for
/// documentation of the benchmark schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// True if `value` is admissible for a column of this type. NULL is
    /// admissible for every type.
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within its schema.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns with designated primary-key columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
    key_positions: Vec<usize>,
}

impl Schema {
    /// Builds a schema. `key_columns` name the primary-key columns in key
    /// order; they must all exist in `columns`.
    ///
    /// # Panics
    /// Panics if a key column is not present or if column names repeat;
    /// schemas are static program data, so this is a programming error.
    pub fn new(columns: Vec<Column>, key_columns: &[&str]) -> Self {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            assert!(
                seen.insert(c.name.clone()),
                "duplicate column name {}",
                c.name
            );
        }
        let key_positions = key_columns
            .iter()
            .map(|k| {
                columns
                    .iter()
                    .position(|c| c.name == *k)
                    .unwrap_or_else(|| panic!("key column {k} not in schema"))
            })
            .collect();
        Self {
            columns,
            key_positions,
        }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn of(cols: &[(&str, ColumnType)], key_columns: &[&str]) -> Self {
        Self::new(
            cols.iter().map(|(n, t)| Column::new(*n, *t)).collect(),
            key_columns,
        )
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Positions of the primary-key columns.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Resolves a column name to its position.
    pub fn position_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Resolves a column name to its position, reporting a transaction
    /// error mentioning `relation` when it does not exist.
    pub fn require(&self, relation: &str, name: &str) -> Result<usize, TxnError> {
        self.position_of(name)
            .ok_or_else(|| TxnError::UnknownColumn {
                relation: relation.to_owned(),
                column: name.to_owned(),
            })
    }

    /// Validates a row against the schema: arity and column types.
    pub fn validate(&self, relation: &str, values: &[Value]) -> Result<(), TxnError> {
        if values.len() != self.columns.len() {
            return Err(TxnError::BadArguments(format!(
                "relation {relation} expects {} columns, got {}",
                self.columns.len(),
                values.len()
            )));
        }
        for (col, val) in self.columns.iter().zip(values) {
            if !col.ty.admits(val) {
                return Err(TxnError::BadArguments(format!(
                    "column {}.{} of type {:?} cannot hold {val:?}",
                    relation, col.name, col.ty
                )));
            }
        }
        Ok(())
    }
}

/// The definition of one relation inside a reactor type: its name, schema and
/// secondary indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationDef {
    /// Relation name, unique within the reactor type.
    pub name: String,
    /// Relation schema.
    pub schema: Schema,
    /// Secondary indexes, each over a list of column names.
    pub secondary_indexes: Vec<Vec<String>>,
}

impl RelationDef {
    /// Creates a relation definition without secondary indexes.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self {
            name: name.into(),
            schema,
            secondary_indexes: Vec::new(),
        }
    }

    /// Adds a secondary index over the named columns.
    pub fn with_index(mut self, columns: &[&str]) -> Self {
        self.secondary_indexes
            .push(columns.iter().map(|c| (*c).to_owned()).collect());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account_schema() -> Schema {
        Schema::of(
            &[
                ("name", ColumnType::Str),
                ("cust_id", ColumnType::Int),
                ("balance", ColumnType::Float),
            ],
            &["name"],
        )
    }

    #[test]
    fn schema_positions_and_keys() {
        let s = account_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position_of("balance"), Some(2));
        assert_eq!(s.position_of("missing"), None);
        assert_eq!(s.key_positions(), &[0]);
    }

    #[test]
    fn require_reports_relation_and_column() {
        let s = account_schema();
        let err = s.require("account", "nope").unwrap_err();
        assert!(matches!(err, TxnError::UnknownColumn { relation, column }
            if relation == "account" && column == "nope"));
    }

    #[test]
    fn validation_checks_arity_and_types() {
        let s = account_schema();
        assert!(s
            .validate("account", &["bob".into(), 1i64.into(), 10.5f64.into()])
            .is_ok());
        // Int admissible in Float column.
        assert!(s
            .validate("account", &["bob".into(), 1i64.into(), 10i64.into()])
            .is_ok());
        // NULL admissible anywhere.
        assert!(s
            .validate("account", &[Value::Null, Value::Null, Value::Null])
            .is_ok());
        assert!(s.validate("account", &["bob".into(), 1i64.into()]).is_err());
        assert!(s
            .validate("account", &["bob".into(), "oops".into(), 10.5f64.into()])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "key column")]
    fn unknown_key_column_panics() {
        Schema::of(&[("a", ColumnType::Int)], &["b"]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        Schema::of(&[("a", ColumnType::Int), ("a", ColumnType::Int)], &["a"]);
    }

    #[test]
    fn relation_def_with_indexes() {
        let def = RelationDef::new("customer", account_schema()).with_index(&["cust_id"]);
        assert_eq!(def.secondary_indexes.len(), 1);
        assert_eq!(def.secondary_indexes[0], vec!["cust_id".to_owned()]);
    }
}
