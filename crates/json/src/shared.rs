//! Shared immutable document values.
//!
//! The hot KV path (cache hit, DCP fan-out, replication) hands the same
//! document to many consumers. [`SharedValue`] wraps the parsed [`Value`]
//! in an [`Arc`] so every hand-off is a reference-count bump instead of a
//! deep clone of the JSON tree. The wrapper derefs to [`Value`], so read
//! access is transparent; mutation goes through [`SharedValue::make_mut`]
//! (copy-on-write, cloning only when the value is actually shared).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::value::Value;

/// A reference-counted, immutable JSON document body.
///
/// Cloning is O(1). Converting from [`Value`] allocates the `Arc` once;
/// converting back with [`SharedValue::into_value`] is free when this is
/// the only reference and a deep clone otherwise.
#[derive(Clone)]
pub struct SharedValue(Arc<Value>);

impl SharedValue {
    /// Wrap a value for sharing.
    pub fn new(value: Value) -> SharedValue {
        SharedValue(Arc::new(value))
    }

    /// Borrow the underlying value (equivalent to deref).
    pub fn as_value(&self) -> &Value {
        &self.0
    }

    /// Take the value out, cloning only if other references exist.
    pub fn into_value(self) -> Value {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Copy-on-write mutable access: clones the tree only when shared.
    pub fn make_mut(&mut self) -> &mut Value {
        Arc::make_mut(&mut self.0)
    }

    /// Whether two handles point at the same allocation (used by tests to
    /// prove the zero-copy property: a cache hit must alias the stored
    /// document, not a copy of it).
    pub fn ptr_eq(a: &SharedValue, b: &SharedValue) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Number of live references (diagnostics/tests).
    pub fn ref_count(this: &SharedValue) -> usize {
        Arc::strong_count(&this.0)
    }
}

impl Deref for SharedValue {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.0
    }
}

impl AsRef<Value> for SharedValue {
    fn as_ref(&self) -> &Value {
        &self.0
    }
}

impl From<Value> for SharedValue {
    fn from(v: Value) -> SharedValue {
        SharedValue::new(v)
    }
}

impl From<Arc<Value>> for SharedValue {
    fn from(v: Arc<Value>) -> SharedValue {
        SharedValue(v)
    }
}

impl From<SharedValue> for Value {
    fn from(v: SharedValue) -> Value {
        v.into_value()
    }
}

impl PartialEq for SharedValue {
    fn eq(&self, other: &SharedValue) -> bool {
        // Pointer equality short-circuits the common aliased case.
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl PartialEq<Value> for SharedValue {
    fn eq(&self, other: &Value) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<SharedValue> for Value {
    fn eq(&self, other: &SharedValue) -> bool {
        *self == *other.0
    }
}

impl fmt::Debug for SharedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for SharedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_aliasing_not_copying() {
        let a = SharedValue::new(Value::object([("k", Value::int(1))]));
        let b = a.clone();
        assert!(SharedValue::ptr_eq(&a, &b));
        assert_eq!(SharedValue::ref_count(&a), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn compares_against_plain_values() {
        let v = Value::int(42);
        let s = SharedValue::new(v.clone());
        assert_eq!(s, v);
        assert_eq!(v, s);
        assert_eq!(s, SharedValue::new(Value::int(42)));
        assert_ne!(s, Value::int(43));
    }

    #[test]
    fn into_value_avoids_clone_when_unique() {
        let s = SharedValue::new(Value::from("solo"));
        let v = s.into_value(); // sole owner: no clone
        assert_eq!(v, Value::from("solo"));
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut a = SharedValue::new(Value::object([("n", Value::int(1))]));
        let b = a.clone();
        a.make_mut().insert_field("n", Value::int(2));
        assert_eq!(a.get_field("n"), Some(&Value::int(2)));
        assert_eq!(b.get_field("n"), Some(&Value::int(1)), "shared copy untouched");
        assert!(!SharedValue::ptr_eq(&a, &b));
    }

    #[test]
    fn deref_gives_value_api() {
        let s = SharedValue::new(Value::object([("x", Value::int(7))]));
        assert_eq!(s.get_field("x").and_then(Value::as_i64), Some(7));
        assert_eq!(s.to_json_string(), r#"{"x":7}"#);
    }
}
