//! Two accessors over the serde shim's [`Value`] tree, shared by the
//! contract reader, the set collector and `--compare`.

use serde::Value;

/// Member `key` of a JSON object (`None` if `v` is not an object or has
/// no such member).
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// A JSON number of any of the shim's three numeric kinds, as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}
