//! Schema validation for machine-readable benchmark reports.
//!
//! `loadbench` holds every report it emits to its committed
//! `report.schema.json` through [`validate`], which implements the subset
//! of JSON Schema that file uses: `type`, `properties`, `required`,
//! `items`, `minimum`, `exclusiveMinimum`, `additionalProperties: false`
//! and local `$ref: "#/..."` pointers. Keeping the validator honest
//! against the real schema file (instead of hardcoding the shape) means
//! the schema in the repo is the single source of truth reviewers read.

use crate::json::Json;

/// Validates `doc` against the JSON-Schema subset in `schema`. Returns
/// every violation (empty = valid); paths are JSON-pointer style.
pub fn validate(doc: &Json, schema: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    validate_at(doc, schema, schema, "", &mut errors);
    errors
}

/// Resolves a local `$ref` ("#/definitions/mode") against the schema
/// root; non-ref nodes pass through. One level is enough — the checked-in
/// schema never chains references.
fn resolve<'a>(schema: &'a Json, root: &'a Json) -> &'a Json {
    let Some(pointer) = schema.get("$ref").and_then(Json::as_str) else {
        return schema;
    };
    let Some(path) = pointer.strip_prefix("#/") else {
        return schema;
    };
    let mut node = root;
    for segment in path.split('/') {
        match node.get(segment) {
            Some(next) => node = next,
            None => return schema, // dangling ref: validate nothing
        }
    }
    node
}

fn validate_at(doc: &Json, schema: &Json, root: &Json, path: &str, errors: &mut Vec<String>) {
    let schema = resolve(schema, root);
    let here = || {
        if path.is_empty() {
            "<root>".to_string()
        } else {
            path.to_string()
        }
    };

    if let Some(expected) = schema.get("type").and_then(Json::as_str) {
        // JSON Schema's "integer" is a number constraint, not a type of
        // its own in our value model.
        let ok = match expected {
            "integer" => matches!(doc, Json::Num(n) if n.fract() == 0.0),
            other => doc.type_name() == other,
        };
        if !ok {
            errors.push(format!(
                "{}: expected {expected}, found {}",
                here(),
                doc.type_name()
            ));
            return; // structural checks below would only cascade
        }
    }

    if let Some(min) = schema.get("minimum").and_then(Json::as_f64) {
        if let Some(n) = doc.as_f64() {
            if n < min {
                errors.push(format!("{}: {n} below minimum {min}", here()));
            }
        }
    }
    if let Some(min) = schema.get("exclusiveMinimum").and_then(Json::as_f64) {
        if let Some(n) = doc.as_f64() {
            if n <= min {
                errors.push(format!("{}: {n} not above {min}", here()));
            }
        }
    }

    if let Some(required) = schema.get("required").and_then(Json::as_arr) {
        for key in required.iter().filter_map(Json::as_str) {
            if doc.get(key).is_none() {
                errors.push(format!("{}: missing required member {key:?}", here()));
            }
        }
    }

    if let Some(props) = schema.get("properties").and_then(Json::as_obj) {
        for (key, subschema) in props {
            if let Some(member) = doc.get(key) {
                validate_at(member, subschema, root, &format!("{path}/{key}"), errors);
            }
        }
        if schema.get("additionalProperties").and_then(Json::as_bool) == Some(false) {
            if let Some(members) = doc.as_obj() {
                for (key, _) in members {
                    if !props.iter().any(|(k, _)| k == key) {
                        errors.push(format!("{}: unexpected member {key:?}", here()));
                    }
                }
            }
        }
    }

    if let (Some(items), Some(elems)) = (schema.get("items"), doc.as_arr()) {
        for (i, elem) in elems.iter().enumerate() {
            validate_at(elem, items, root, &format!("{path}/{i}"), errors);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn validator_enforces_types_required_and_bounds() {
        let schema = parse(
            r#"{
                "type": "object",
                "required": ["speedup", "modes"],
                "additionalProperties": false,
                "properties": {
                    "speedup": {"type": "number", "exclusiveMinimum": 0},
                    "count": {"type": "integer", "minimum": 1},
                    "modes": {"type": "array", "items": {"type": "string"}}
                }
            }"#,
        )
        .unwrap();

        let good = parse(r#"{"speedup": 1.6, "count": 3, "modes": ["off", "on"]}"#).unwrap();
        assert!(validate(&good, &schema).is_empty());

        let bad =
            parse(r#"{"speedup": 0, "count": 1.5, "modes": ["off", 4], "extra": 1}"#).unwrap();
        let errors = validate(&bad, &schema);
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("not above 0")));
        assert!(errors.iter().any(|e| e.contains("expected integer")));
        assert!(errors.iter().any(|e| e.contains("/modes/1")));
        assert!(errors.iter().any(|e| e.contains("unexpected member")));

        let missing = parse(r#"{"speedup": 2.0}"#).unwrap();
        let errors = validate(&missing, &schema);
        assert!(errors.iter().any(|e| e.contains("missing required")));
    }

    #[test]
    fn validator_follows_local_refs() {
        let schema = parse(
            r##"{
                "type": "object",
                "required": ["off", "on"],
                "properties": {
                    "off": {"$ref": "#/definitions/mode"},
                    "on": {"$ref": "#/definitions/mode"}
                },
                "definitions": {
                    "mode": {
                        "type": "object",
                        "required": ["rate"],
                        "properties": {"rate": {"type": "number", "exclusiveMinimum": 0}}
                    }
                }
            }"##,
        )
        .unwrap();
        let good = parse(r#"{"off": {"rate": 1.0}, "on": {"rate": 2.0}}"#).unwrap();
        assert!(validate(&good, &schema).is_empty());
        let bad = parse(r#"{"off": {"rate": 0}, "on": {}}"#).unwrap();
        let errors = validate(&bad, &schema);
        assert!(errors.iter().any(|e| e.contains("/off/rate")), "{errors:?}");
        assert!(
            errors
                .iter()
                .any(|e| e.contains("missing required member \"rate\"")),
            "{errors:?}"
        );
    }
}
