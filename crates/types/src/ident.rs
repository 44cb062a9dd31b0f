//! Validated identifiers: virtual sensor names, field names and node ids.
//!
//! GSN identifies virtual sensors by name in the directory and addresses them in SQL
//! queries; keeping identifier validation in one place prevents descriptor typos and SQL
//! injection-ish surprises from propagating into the engine.

use std::fmt;

use crate::error::GsnError;

/// Checks that `s` is a valid GSN identifier: non-empty, starts with a letter or
/// underscore, and contains only ASCII alphanumerics, `_` and `-`.
fn validate_ident(s: &str, what: &str, allow_dash: bool) -> Result<(), GsnError> {
    if s.is_empty() {
        return Err(GsnError::descriptor(format!("{what} must not be empty")));
    }
    let mut chars = s.chars();
    let first = chars.next().expect("non-empty");
    if !(first.is_ascii_alphabetic() || first == '_') {
        return Err(GsnError::descriptor(format!(
            "{what} `{s}` must start with a letter or underscore"
        )));
    }
    for c in s.chars() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || (allow_dash && c == '-');
        if !ok {
            return Err(GsnError::descriptor(format!(
                "{what} `{s}` contains invalid character `{c}`"
            )));
        }
    }
    Ok(())
}

/// The name of a virtual sensor, unique within a container and used as the key under which
/// the sensor is published to the directory.  Stored lower-case (names are
/// case-insensitive, as in GSN where they double as table names).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtualSensorName(String);

impl VirtualSensorName {
    /// Validates and normalises a virtual sensor name.
    pub fn new(name: &str) -> Result<VirtualSensorName, GsnError> {
        let trimmed = name.trim();
        validate_ident(trimmed, "virtual sensor name", true)?;
        Ok(VirtualSensorName(trimmed.to_ascii_lowercase()))
    }

    /// The normalised name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for VirtualSensorName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for VirtualSensorName {
    type Err = GsnError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VirtualSensorName::new(s)
    }
}

/// A stream field name.  Stored upper-case, matching GSN's SQL-facing convention
/// (`select AVG(TEMPERATURE) from WRAPPER`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldName(String);

impl FieldName {
    /// Validates and normalises a field name.
    pub fn new(name: &str) -> Result<FieldName, GsnError> {
        let trimmed = name.trim();
        validate_ident(trimmed, "field name", false)?;
        Ok(FieldName(trimmed.to_ascii_uppercase()))
    }

    /// The normalised (upper-case) name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for FieldName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for FieldName {
    type Err = GsnError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FieldName::new(s)
    }
}

/// Identifies one GSN container (node) in the simulated peer-to-peer overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u64);

impl NodeId {
    /// The local/loopback node.
    pub const LOCAL: NodeId = NodeId(0);

    /// Creates a node id from a raw integer.
    pub const fn new(id: u64) -> NodeId {
        NodeId(id)
    }

    /// The raw id.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensor_names_normalise_to_lowercase() {
        let n = VirtualSensorName::new("Room_BC143-Temperature").unwrap();
        assert_eq!(n.as_str(), "room_bc143-temperature");
        assert_eq!(n, "ROOM_bc143-TEMPERATURE".parse().unwrap());
    }

    #[test]
    fn sensor_names_reject_invalid() {
        assert!(VirtualSensorName::new("").is_err());
        assert!(VirtualSensorName::new("9lives").is_err());
        assert!(VirtualSensorName::new("has space").is_err());
        assert!(VirtualSensorName::new("semi;colon").is_err());
        assert!(VirtualSensorName::new("_ok").is_ok());
        assert!(VirtualSensorName::new("  padded  ").is_ok());
    }

    #[test]
    fn field_names_normalise_to_uppercase() {
        let f = FieldName::new("temperature").unwrap();
        assert_eq!(f.as_str(), "TEMPERATURE");
        assert_eq!(f.to_string(), "TEMPERATURE");
        assert_eq!(f, "Temperature".parse().unwrap());
    }

    #[test]
    fn field_names_reject_dashes_and_symbols() {
        assert!(FieldName::new("with-dash").is_err());
        assert!(FieldName::new("select*").is_err());
        assert!(FieldName::new("ok_name2").is_ok());
    }

    #[test]
    fn node_ids_format() {
        assert_eq!(NodeId::new(3).to_string(), "node-3");
        assert_eq!(NodeId::LOCAL.as_u64(), 0);
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
