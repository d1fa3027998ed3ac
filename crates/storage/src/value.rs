//! Scalar values and data types.

use std::fmt;

/// Column data types supported by the engine.
///
/// The synthetic workloads join on integer keys and filter on integer,
/// float, and dictionary-encoded text columns; NULLs are not modelled
/// (none of the paper's experiments depend on them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Text => write!(f, "TEXT"),
        }
    }
}

impl DataType {
    /// Approximate on-disk width in bytes, used to compute rows-per-page.
    pub fn width_bytes(self) -> usize {
        match self {
            DataType::Int => 8,
            DataType::Float => 8,
            DataType::Text => 32,
        }
    }
}

/// A scalar value: query literals, generated cell values, executor rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
}

// Externally tagged, so Int(3) and Float(3.0) stay distinct.
bao_common::json_enum!(Value { Int(i64), Float(f64), Str(String) });

impl Value {
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Text,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(3).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.5).data_type(), DataType::Float);
        assert_eq!(Value::Str("x".into()).data_type(), DataType::Text);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Float(2.0).as_int(), None);
        // Ints widen to float for mixed comparisons.
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Str("abc".into()).to_string(), "'abc'");
        assert_eq!(DataType::Int.to_string(), "INT");
    }

    #[test]
    fn widths() {
        assert_eq!(DataType::Int.width_bytes(), 8);
        assert_eq!(DataType::Text.width_bytes(), 32);
    }
}
