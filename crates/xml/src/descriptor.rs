//! Virtual sensor deployment descriptors.
//!
//! "To support rapid deployment, these properties of virtual sensors are provided in a
//! declarative deployment descriptor" (paper, Section 2).  This module is the typed form
//! of that XML descriptor: parsing, validation, serialisation and a builder API for
//! programmatic deployment (used by the examples and by benchmark workload generators).
//!
//! The descriptor grammar follows the paper's Figure 1, without its
//! `<life-cycle pool-size>` element: a container runs every virtual sensor on the
//! caller's thread, so a per-sensor thread pool has no meaning here, and a descriptor
//! that carries the element is refused rather than silently ignored.
//!
//! ```xml
//! <virtual-sensor name="room-bc143-temperature" priority="10">
//!   <description>Averaged room temperature</description>
//!   <metadata key="type" val="temperature" />
//!   <metadata key="location" val="bc143" />
//!   <output-structure>
//!     <field name="TEMPERATURE" type="integer" />
//!   </output-structure>
//!   <storage permanent-storage="true" size="10s" />
//!   <input-stream name="dummy" rate="100">
//!     <stream-source alias="src1" sampling-rate="1" storage-size="1h" disconnect-buffer="10">
//!       <address wrapper="remote">
//!         <predicate key="type" val="temperature" />
//!         <predicate key="location" val="bc143" />
//!       </address>
//!       <query>select avg(temperature) from WRAPPER</query>
//!     </stream-source>
//!     <query>select * from src1</query>
//!   </input-stream>
//! </virtual-sensor>
//! ```

use gsn_storage::WindowSpec;
use gsn_types::{DataType, FieldSpec, GsnError, GsnResult, StreamSchema, VirtualSensorName};

use crate::dom::XmlElement;
use crate::parser::parse_document;
use crate::writer::write_document;

/// Default disconnect buffer (elements buffered while a source is unreachable).
pub const DEFAULT_DISCONNECT_BUFFER: usize = 10;

/// Which storage engine the container should use for a sensor's output table
/// (`<storage backend="...">`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBackendChoice {
    /// Let the container decide: disk when `permanent-storage="true"` and the container
    /// has a data directory, memory otherwise.
    #[default]
    Auto,
    /// Force the in-memory backend even for permanent storage.
    Memory,
    /// Force the persistent page engine (requires a container data directory to take
    /// effect).
    Disk,
}

impl StorageBackendChoice {
    /// Parses the `backend` attribute value.
    pub fn parse(value: &str) -> GsnResult<StorageBackendChoice> {
        match value.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(StorageBackendChoice::Auto),
            "memory" | "mem" => Ok(StorageBackendChoice::Memory),
            "disk" | "persistent" | "file" => Ok(StorageBackendChoice::Disk),
            other => Err(GsnError::descriptor(format!(
                "unknown storage backend `{other}` (expected auto, memory or disk)"
            ))),
        }
    }

    /// The canonical attribute spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageBackendChoice::Auto => "auto",
            StorageBackendChoice::Memory => "memory",
            StorageBackendChoice::Disk => "disk",
        }
    }
}

/// The `<storage>` element: how output stream elements are persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// `permanent-storage="true"`: keep the full output history.
    pub permanent: bool,
    /// The bounded history kept when not permanent (`size="10s"` / `size="100"`).
    /// `None` keeps the full history, mirroring the original GSN where the output
    /// stream accumulates in its database table unless explicitly bounded.
    pub history: Option<WindowSpec>,
    /// Which storage engine to use (`backend="auto|memory|disk"`).
    pub backend: StorageBackendChoice,
}

impl StorageConfig {
    /// True when the container should place this output table on the persistent engine
    /// (assuming it has a data directory).
    pub fn wants_durable(&self) -> bool {
        match self.backend {
            StorageBackendChoice::Auto => self.permanent,
            StorageBackendChoice::Memory => false,
            StorageBackendChoice::Disk => true,
        }
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            permanent: false,
            history: None,
            backend: StorageBackendChoice::Auto,
        }
    }
}

/// The `<address>` element of a stream source: which wrapper produces the data and the
/// key–value predicates used either to configure a local wrapper or to discover a remote
/// virtual sensor through the peer-to-peer directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AddressSpec {
    /// The wrapper name (`mote`, `camera`, `rfid`, `remote`, ...).
    pub wrapper: String,
    /// Key–value predicates (`<predicate key="..." val="..."/>`).
    pub predicates: Vec<(String, String)>,
}

impl AddressSpec {
    /// Creates an address for a wrapper.
    pub fn new(wrapper: &str) -> AddressSpec {
        AddressSpec {
            wrapper: wrapper.to_owned(),
            predicates: Vec::new(),
        }
    }

    /// Adds a predicate (builder style).
    pub fn with_predicate(mut self, key: &str, val: &str) -> AddressSpec {
        self.predicates.push((key.to_owned(), val.to_owned()));
        self
    }

    /// Looks a predicate up by case-insensitive key.
    pub fn predicate(&self, key: &str) -> Option<&str> {
        self.predicates
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// True when this address refers to a remote virtual sensor.
    pub fn is_remote(&self) -> bool {
        self.wrapper.eq_ignore_ascii_case("remote")
    }
}

/// One `<stream-source>`: a window over one wrapper or remote virtual sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSourceSpec {
    /// The alias the queries use to refer to this source (`src1`).
    pub alias: String,
    /// The window kept over this source (`storage-size`).
    pub window: WindowSpec,
    /// Sampling rate in `(0, 1]`; 1 = keep everything.
    pub sampling_rate: f64,
    /// Elements buffered while the source is disconnected.
    pub disconnect_buffer: usize,
    /// Where the data comes from.
    pub address: AddressSpec,
    /// The per-source SQL query; `WRAPPER` refers to the windowed source data.
    pub query: String,
}

impl StreamSourceSpec {
    /// Creates a source with GSN's defaults (latest-only window, no sampling).
    pub fn new(alias: &str, address: AddressSpec, query: &str) -> StreamSourceSpec {
        StreamSourceSpec {
            alias: alias.to_owned(),
            window: WindowSpec::LatestOnly,
            sampling_rate: 1.0,
            disconnect_buffer: DEFAULT_DISCONNECT_BUFFER,
            address,
            query: query.to_owned(),
        }
    }

    /// Sets the window (builder style).
    pub fn with_window(mut self, window: WindowSpec) -> StreamSourceSpec {
        self.window = window;
        self
    }

    /// Sets the sampling rate (builder style).
    pub fn with_sampling_rate(mut self, rate: f64) -> StreamSourceSpec {
        self.sampling_rate = rate;
        self
    }

    /// Sets the disconnect buffer size (builder style).
    pub fn with_disconnect_buffer(mut self, size: usize) -> StreamSourceSpec {
        self.disconnect_buffer = size;
        self
    }
}

/// One `<input-stream>`: a set of sources combined by an output query.
#[derive(Debug, Clone, PartialEq)]
pub struct InputStreamSpec {
    /// The input stream name.
    pub name: String,
    /// Optional rate bound in elements/second applied to this input stream (GSN supports
    /// "bounding the rate of a data stream in order to avoid overloads", Section 3).
    pub rate_limit: Option<u32>,
    /// The stream sources.
    pub sources: Vec<StreamSourceSpec>,
    /// The output query over the per-source temporary relations.
    pub query: String,
}

impl InputStreamSpec {
    /// Creates an input stream.
    pub fn new(name: &str, query: &str) -> InputStreamSpec {
        InputStreamSpec {
            name: name.to_owned(),
            rate_limit: None,
            sources: Vec::new(),
            query: query.to_owned(),
        }
    }

    /// Adds a source (builder style).
    pub fn with_source(mut self, source: StreamSourceSpec) -> InputStreamSpec {
        self.sources.push(source);
        self
    }

    /// Sets a rate limit (builder style).
    pub fn with_rate_limit(mut self, per_second: u32) -> InputStreamSpec {
        self.rate_limit = Some(per_second);
        self
    }
}

/// A complete virtual sensor deployment descriptor.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualSensorDescriptor {
    /// The unique virtual sensor name.
    pub name: VirtualSensorName,
    /// Scheduling priority (larger = more important); informational in GSN-RS.
    pub priority: u32,
    /// Human-readable description.
    pub description: Option<String>,
    /// Key–value metadata published to the directory for discovery.
    pub metadata: Vec<(String, String)>,
    /// The declared output structure.
    pub output_structure: StreamSchema,
    /// Output persistence.
    pub storage: StorageConfig,
    /// The input streams.
    pub input_streams: Vec<InputStreamSpec>,
}

impl VirtualSensorDescriptor {
    /// Starts a builder for programmatic deployment.
    pub fn builder(name: &str) -> GsnResult<DescriptorBuilder> {
        Ok(DescriptorBuilder {
            descriptor: VirtualSensorDescriptor {
                name: VirtualSensorName::new(name)?,
                priority: 10,
                description: None,
                metadata: Vec::new(),
                output_structure: StreamSchema::empty(),
                storage: StorageConfig::default(),
                input_streams: Vec::new(),
            },
        })
    }

    /// Parses a descriptor from XML text.
    pub fn parse(xml: &str) -> GsnResult<VirtualSensorDescriptor> {
        let root = parse_document(xml)?;
        Self::from_element(&root)
    }

    /// Parses a descriptor from an already-parsed DOM element.
    pub fn from_element(root: &XmlElement) -> GsnResult<VirtualSensorDescriptor> {
        if !root.name.eq_ignore_ascii_case("virtual-sensor") {
            return Err(GsnError::descriptor(format!(
                "expected <virtual-sensor> root element, found <{}>",
                root.name
            )));
        }
        let name = VirtualSensorName::new(root.attr("name").ok_or_else(|| {
            GsnError::descriptor("<virtual-sensor> requires a `name` attribute")
        })?)?;
        let priority = parse_attr_or(root, "priority", 10u32)?;

        let description = root
            .first_element("description")
            .map(|d| d.text())
            .filter(|d| !d.is_empty());

        let mut metadata = Vec::new();
        for m in root.elements_named("metadata") {
            let key = m
                .attr("key")
                .ok_or_else(|| GsnError::descriptor("<metadata> requires `key`"))?;
            let val = m
                .attr("val")
                .ok_or_else(|| GsnError::descriptor("<metadata> requires `val`"))?;
            metadata.push((key.to_owned(), val.to_owned()));
        }

        if root.first_element("life-cycle").is_some() {
            return Err(GsnError::descriptor(format!(
                "virtual sensor `{name}` declares <life-cycle>, which this container does \
                 not support: every virtual sensor runs on the container's one thread"
            )));
        }

        let output_structure = {
            let os = root.first_element("output-structure").ok_or_else(|| {
                GsnError::descriptor("<virtual-sensor> requires an <output-structure>")
            })?;
            let mut fields = Vec::new();
            for field in os.elements_named("field") {
                let fname = field
                    .attr("name")
                    .ok_or_else(|| GsnError::descriptor("<field> requires `name`"))?;
                let ftype = field
                    .attr("type")
                    .ok_or_else(|| GsnError::descriptor("<field> requires `type`"))?;
                let mut spec = FieldSpec::new(fname, DataType::parse(ftype)?)?;
                if let Some(desc) = field.attr("description") {
                    spec.description = Some(desc.to_owned());
                }
                fields.push(spec);
            }
            StreamSchema::new(fields)?
        };

        let storage = match root.first_element("storage") {
            Some(s) => {
                let permanent = s
                    .attr("permanent-storage")
                    .map(|v| v.eq_ignore_ascii_case("true"))
                    .unwrap_or(false);
                let history = match s.attr("size").or_else(|| s.attr("history-size")) {
                    Some(spec) => Some(WindowSpec::parse(spec)?),
                    None => None,
                };
                let backend = match s.attr("backend") {
                    Some(value) => StorageBackendChoice::parse(value)?,
                    None => StorageBackendChoice::Auto,
                };
                StorageConfig {
                    permanent,
                    history,
                    backend,
                }
            }
            None => StorageConfig::default(),
        };

        let mut input_streams = Vec::new();
        for is in root.elements_named("input-stream") {
            let name = is
                .attr("name")
                .ok_or_else(|| GsnError::descriptor("<input-stream> requires `name`"))?
                .to_owned();
            let rate_limit = match is.attr("rate") {
                Some(r) => Some(r.parse().map_err(|_| {
                    GsnError::descriptor(format!("invalid input-stream rate `{r}`"))
                })?),
                None => None,
            };
            let query = is
                .first_element("query")
                .map(|q| q.text())
                .filter(|q| !q.is_empty())
                .ok_or_else(|| GsnError::descriptor("<input-stream> requires a <query>"))?;

            let mut sources = Vec::new();
            for src in is.elements_named("stream-source") {
                sources.push(parse_stream_source(src)?);
            }
            input_streams.push(InputStreamSpec {
                name,
                rate_limit,
                sources,
                query,
            });
        }

        let descriptor = VirtualSensorDescriptor {
            name,
            priority,
            description,
            metadata,
            output_structure,
            storage,
            input_streams,
        };
        descriptor.validate()?;
        Ok(descriptor)
    }

    /// Validates descriptor-level invariants that the per-field parsers cannot see.
    pub fn validate(&self) -> GsnResult<()> {
        if self.output_structure.is_empty() {
            return Err(GsnError::descriptor(format!(
                "virtual sensor `{}` declares an empty output structure",
                self.name
            )));
        }
        if self.input_streams.is_empty() {
            return Err(GsnError::descriptor(format!(
                "virtual sensor `{}` declares no input stream",
                self.name
            )));
        }
        for is in &self.input_streams {
            if is.sources.is_empty() {
                return Err(GsnError::descriptor(format!(
                    "input stream `{}` declares no stream source",
                    is.name
                )));
            }
            if is.rate_limit == Some(0) {
                return Err(GsnError::descriptor(format!(
                    "input stream `{}` declares a zero rate limit",
                    is.name
                )));
            }
            // The output query must parse and must read only declared aliases, in its
            // subqueries too.
            let parsed = gsn_sql::parse_query(&is.query).map_err(|e| {
                GsnError::descriptor(format!(
                    "output query of input stream `{}` is invalid: {e}",
                    is.name
                ))
            })?;
            gsn_sql::plan_query(&parsed).map_err(|e| {
                GsnError::descriptor(format!(
                    "output query of input stream `{}` cannot be planned: {e}",
                    is.name
                ))
            })?;
            let aliases: Vec<String> = is
                .sources
                .iter()
                .map(|s| s.alias.to_ascii_lowercase())
                .collect();
            for table in parsed.tables() {
                if !aliases.contains(&table) {
                    return Err(GsnError::descriptor(format!(
                        "output query of input stream `{}` references `{table}`, which is not a declared stream-source alias ({})",
                        is.name,
                        aliases.join(", ")
                    )));
                }
            }

            let mut seen_aliases = std::collections::HashSet::new();
            for src in &is.sources {
                if !seen_aliases.insert(src.alias.to_ascii_lowercase()) {
                    return Err(GsnError::descriptor(format!(
                        "duplicate stream-source alias `{}` in input stream `{}`",
                        src.alias, is.name
                    )));
                }
                if src.alias.eq_ignore_ascii_case("wrapper") {
                    return Err(GsnError::descriptor(
                        "`wrapper` is reserved and cannot be used as a stream-source alias",
                    ));
                }
                if !(src.sampling_rate > 0.0 && src.sampling_rate <= 1.0) {
                    return Err(GsnError::descriptor(format!(
                        "sampling-rate of source `{}` must be in (0, 1], got {}",
                        src.alias, src.sampling_rate
                    )));
                }
                if src.address.wrapper.is_empty() {
                    return Err(GsnError::descriptor(format!(
                        "source `{}` does not name a wrapper",
                        src.alias
                    )));
                }
                // The source query must parse and may reference only WRAPPER, in its
                // subqueries too.
                let parsed = gsn_sql::parse_query(&src.query).map_err(|e| {
                    GsnError::descriptor(format!("source query of `{}` is invalid: {e}", src.alias))
                })?;
                gsn_sql::plan_query(&parsed).map_err(|e| {
                    GsnError::descriptor(format!(
                        "source query of `{}` cannot be planned: {e}",
                        src.alias
                    ))
                })?;
                for table in parsed.tables() {
                    if !table.eq_ignore_ascii_case("wrapper") {
                        return Err(GsnError::descriptor(format!(
                            "source query of `{}` may only read from WRAPPER, found `{table}`",
                            src.alias
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Serialises the descriptor back to a complete XML document.
    pub fn to_xml(&self) -> String {
        write_document(&self.to_element())
    }

    /// Serialises the descriptor to a DOM element.
    pub fn to_element(&self) -> XmlElement {
        let mut root = XmlElement::new("virtual-sensor")
            .with_attr("name", self.name.as_str())
            .with_attr("priority", self.priority.to_string());
        if let Some(d) = &self.description {
            root = root.with_child(XmlElement::new("description").with_text(d.clone()));
        }
        for (k, v) in &self.metadata {
            root = root.with_child(
                XmlElement::new("metadata")
                    .with_attr("key", k.clone())
                    .with_attr("val", v.clone()),
            );
        }
        let mut os = XmlElement::new("output-structure");
        for field in self.output_structure.fields() {
            let mut fe = XmlElement::new("field")
                .with_attr("name", field.name.as_str())
                .with_attr("type", field.data_type.canonical_name());
            if let Some(d) = &field.description {
                fe = fe.with_attr("description", d.clone());
            }
            os = os.with_child(fe);
        }
        root = root.with_child(os);

        let mut storage = XmlElement::new("storage")
            .with_attr("permanent-storage", self.storage.permanent.to_string());
        if let Some(h) = &self.storage.history {
            storage = storage.with_attr("size", h.to_spec_string());
        }
        if self.storage.backend != StorageBackendChoice::Auto {
            storage = storage.with_attr("backend", self.storage.backend.as_str());
        }
        root = root.with_child(storage);

        for is in &self.input_streams {
            let mut ise = XmlElement::new("input-stream").with_attr("name", is.name.clone());
            if let Some(rate) = is.rate_limit {
                ise = ise.with_attr("rate", rate.to_string());
            }
            for src in &is.sources {
                let mut se = XmlElement::new("stream-source")
                    .with_attr("alias", src.alias.clone())
                    .with_attr("sampling-rate", format_sampling(src.sampling_rate))
                    .with_attr("storage-size", src.window.to_spec_string())
                    .with_attr("disconnect-buffer", src.disconnect_buffer.to_string());
                let mut addr =
                    XmlElement::new("address").with_attr("wrapper", src.address.wrapper.clone());
                for (k, v) in &src.address.predicates {
                    addr = addr.with_child(
                        XmlElement::new("predicate")
                            .with_attr("key", k.clone())
                            .with_attr("val", v.clone()),
                    );
                }
                se = se.with_child(addr);
                se = se.with_child(XmlElement::new("query").with_text(src.query.clone()));
                ise = ise.with_child(se);
            }
            ise = ise.with_child(XmlElement::new("query").with_text(is.query.clone()));
            root = root.with_child(ise);
        }
        root
    }

    /// All wrapper names this descriptor needs (deduplicated, lower-case).
    pub fn required_wrappers(&self) -> Vec<String> {
        let mut wrappers = Vec::new();
        for is in &self.input_streams {
            for src in &is.sources {
                let w = src.address.wrapper.to_ascii_lowercase();
                if !wrappers.contains(&w) {
                    wrappers.push(w);
                }
            }
        }
        wrappers
    }
}

fn parse_stream_source(src: &XmlElement) -> GsnResult<StreamSourceSpec> {
    let alias = src
        .attr("alias")
        .ok_or_else(|| GsnError::descriptor("<stream-source> requires `alias`"))?
        .to_owned();
    let window = match src.attr("storage-size") {
        Some(spec) => WindowSpec::parse(spec)?,
        None => WindowSpec::LatestOnly,
    };
    let sampling_rate: f64 = match src.attr("sampling-rate") {
        Some(r) => r.parse().map_err(|_| {
            GsnError::descriptor(format!("invalid sampling-rate `{r}` for source `{alias}`"))
        })?,
        None => 1.0,
    };
    let disconnect_buffer = parse_attr_or(src, "disconnect-buffer", DEFAULT_DISCONNECT_BUFFER)?;
    let address_el = src
        .first_element("address")
        .ok_or_else(|| GsnError::descriptor(format!("source `{alias}` requires an <address>")))?;
    let wrapper = address_el
        .attr("wrapper")
        .ok_or_else(|| GsnError::descriptor("<address> requires `wrapper`"))?;
    let mut address = AddressSpec::new(wrapper);
    for p in address_el.elements_named("predicate") {
        let key = p
            .attr("key")
            .ok_or_else(|| GsnError::descriptor("<predicate> requires `key`"))?;
        let val = p
            .attr("val")
            .ok_or_else(|| GsnError::descriptor("<predicate> requires `val`"))?;
        address = address.with_predicate(key, val);
    }
    let query = src
        .first_element("query")
        .map(|q| q.text())
        .filter(|q| !q.is_empty())
        .unwrap_or_else(|| "select * from WRAPPER".to_owned());
    Ok(StreamSourceSpec {
        alias,
        window,
        sampling_rate,
        disconnect_buffer,
        address,
        query,
    })
}

fn parse_attr_or<T: std::str::FromStr>(el: &XmlElement, key: &str, default: T) -> GsnResult<T> {
    match el.attr(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            GsnError::descriptor(format!("invalid value `{raw}` for attribute `{key}`"))
        }),
    }
}

fn format_sampling(rate: f64) -> String {
    if (rate - 1.0).abs() < f64::EPSILON {
        "1".to_owned()
    } else {
        format!("{rate}")
    }
}

/// Fluent builder for [`VirtualSensorDescriptor`].
#[derive(Debug, Clone)]
pub struct DescriptorBuilder {
    descriptor: VirtualSensorDescriptor,
}

impl DescriptorBuilder {
    /// Sets the priority.
    pub fn priority(mut self, priority: u32) -> Self {
        self.descriptor.priority = priority;
        self
    }

    /// Sets the description.
    pub fn description(mut self, description: &str) -> Self {
        self.descriptor.description = Some(description.to_owned());
        self
    }

    /// Adds a metadata predicate used for directory discovery.
    pub fn metadata(mut self, key: &str, val: &str) -> Self {
        self.descriptor
            .metadata
            .push((key.to_owned(), val.to_owned()));
        self
    }

    /// Adds an output field.
    pub fn output_field(mut self, name: &str, data_type: DataType) -> GsnResult<Self> {
        self.descriptor
            .output_structure
            .push(FieldSpec::new(name, data_type)?)?;
        Ok(self)
    }

    /// Configures permanent storage of the output stream.
    pub fn permanent_storage(mut self, permanent: bool) -> Self {
        self.descriptor.storage.permanent = permanent;
        self
    }

    /// Selects the storage engine for the output table (`backend="memory|disk"`).
    pub fn storage_backend(mut self, backend: StorageBackendChoice) -> Self {
        self.descriptor.storage.backend = backend;
        self
    }

    /// Sets the bounded output history window.
    pub fn output_history(mut self, window: WindowSpec) -> Self {
        self.descriptor.storage.history = Some(window);
        self
    }

    /// Adds an input stream.
    pub fn input_stream(mut self, stream: InputStreamSpec) -> Self {
        self.descriptor.input_streams.push(stream);
        self
    }

    /// Validates and returns the descriptor.
    pub fn build(self) -> GsnResult<VirtualSensorDescriptor> {
        self.descriptor.validate()?;
        Ok(self.descriptor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 descriptor without `<life-cycle>`, completed into a full
    /// document.
    pub const PAPER_DESCRIPTOR: &str = r#"<?xml version="1.0"?>
<virtual-sensor name="room-bc143-temperature" priority="10">
  <description>Averaged temperature of room BC143</description>
  <metadata key="type" val="temperature" />
  <metadata key="location" val="bc143" />
  <output-structure>
    <field name="TEMPERATURE" type="integer"/>
  </output-structure>
  <storage permanent-storage="true" size="10s" />
  <input-stream name="dummy" rate="100">
    <stream-source alias="src1" sampling-rate="1" storage-size="1h" disconnect-buffer="10">
      <address wrapper="remote">
        <predicate key="type" val="temperature" />
        <predicate key="location" val="bc143" />
      </address>
      <query>select avg(temperature) as temperature from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>"#;

    #[test]
    fn parses_the_paper_descriptor() {
        let d = VirtualSensorDescriptor::parse(PAPER_DESCRIPTOR).unwrap();
        assert_eq!(d.name.as_str(), "room-bc143-temperature");
        assert_eq!(d.priority, 10);
        assert!(d.storage.permanent);
        assert_eq!(
            d.storage.history,
            Some(WindowSpec::Time(gsn_types::Duration::from_secs(10)))
        );
        assert_eq!(d.output_structure.len(), 1);
        assert_eq!(d.metadata.len(), 2);
        assert_eq!(d.input_streams.len(), 1);
        let is = &d.input_streams[0];
        assert_eq!(is.name, "dummy");
        assert_eq!(is.rate_limit, Some(100));
        assert_eq!(is.query, "select * from src1");
        assert_eq!(is.sources.len(), 1);
        let src = &is.sources[0];
        assert_eq!(src.alias, "src1");
        assert_eq!(
            src.window,
            WindowSpec::Time(gsn_types::Duration::from_hours(1))
        );
        assert_eq!(src.sampling_rate, 1.0);
        assert_eq!(src.disconnect_buffer, 10);
        assert!(src.address.is_remote());
        assert_eq!(src.address.predicate("type"), Some("temperature"));
        assert_eq!(src.address.predicate("LOCATION"), Some("bc143"));
        assert_eq!(d.required_wrappers(), vec!["remote"]);
    }

    #[test]
    fn descriptor_round_trips_through_xml() {
        let d = VirtualSensorDescriptor::parse(PAPER_DESCRIPTOR).unwrap();
        let xml = d.to_xml();
        let reparsed = VirtualSensorDescriptor::parse(&xml).unwrap();
        assert_eq!(d, reparsed);
    }

    #[test]
    fn builder_constructs_valid_descriptors() {
        let d = VirtualSensorDescriptor::builder("mote-light")
            .unwrap()
            .priority(5)
            .description("light level")
            .metadata("type", "light")
            .output_field("light", DataType::Double)
            .unwrap()
            .permanent_storage(false)
            .output_history(WindowSpec::Count(100))
            .input_stream(
                InputStreamSpec::new("main", "select * from src").with_source(
                    StreamSourceSpec::new(
                        "src",
                        AddressSpec::new("mote").with_predicate("sensor", "light"),
                        "select light from WRAPPER",
                    )
                    .with_window(WindowSpec::Count(10))
                    .with_sampling_rate(0.5)
                    .with_disconnect_buffer(5),
                ),
            )
            .build()
            .unwrap();
        assert_eq!(d.name.as_str(), "mote-light");
        assert_eq!(d.input_streams[0].sources[0].sampling_rate, 0.5);
        // And it still round-trips.
        let reparsed = VirtualSensorDescriptor::parse(&d.to_xml()).unwrap();
        assert_eq!(d, reparsed);
    }

    #[test]
    fn missing_required_parts_are_rejected() {
        assert!(VirtualSensorDescriptor::parse("<not-a-sensor/>").is_err());
        assert!(VirtualSensorDescriptor::parse("<virtual-sensor/>").is_err());
        // No output structure.
        assert!(VirtualSensorDescriptor::parse(
            r#"<virtual-sensor name="x"><input-stream name="i"><query>select 1</query></input-stream></virtual-sensor>"#
        )
        .is_err());
        // No input stream.
        assert!(VirtualSensorDescriptor::parse(
            r#"<virtual-sensor name="x"><output-structure><field name="a" type="integer"/></output-structure></virtual-sensor>"#
        )
        .is_err());
        // Input stream without query.
        assert!(VirtualSensorDescriptor::parse(
            r#"<virtual-sensor name="x">
                 <output-structure><field name="a" type="integer"/></output-structure>
                 <input-stream name="i">
                   <stream-source alias="s"><address wrapper="mote"/></stream-source>
                 </input-stream>
               </virtual-sensor>"#
        )
        .is_err());
    }

    #[test]
    fn invalid_queries_are_rejected_at_deployment_time() {
        let bad_source_query = PAPER_DESCRIPTOR.replace(
            "select avg(temperature) as temperature from WRAPPER",
            "selekt broken",
        );
        let err = VirtualSensorDescriptor::parse(&bad_source_query).unwrap_err();
        assert!(err.to_string().contains("source query"), "{err}");

        let bad_output_query = PAPER_DESCRIPTOR.replace("select * from src1", "select * from");
        assert!(VirtualSensorDescriptor::parse(&bad_output_query).is_err());
    }

    #[test]
    fn queries_must_reference_declared_aliases() {
        let wrong_alias = PAPER_DESCRIPTOR.replace("select * from src1", "select * from src2");
        let err = VirtualSensorDescriptor::parse(&wrong_alias).unwrap_err();
        assert!(err.to_string().contains("src2"), "{err}");

        let source_reads_other_table = PAPER_DESCRIPTOR.replace(
            "select avg(temperature) as temperature from WRAPPER",
            "select avg(temperature) from othertable",
        );
        let err = VirtualSensorDescriptor::parse(&source_reads_other_table).unwrap_err();
        assert!(err.to_string().contains("WRAPPER"), "{err}");

        // A subquery is no way around it; one over WRAPPER itself is fine.
        for (subquery_table, ok) in [("othertable", false), ("WRAPPER", true)] {
            let xml = PAPER_DESCRIPTOR.replace(
                "select avg(temperature) as temperature from WRAPPER",
                &format!(
                    "select avg(temperature) as temperature from WRAPPER where temperature \
                     in (select temperature from {subquery_table})"
                ),
            );
            let parsed = VirtualSensorDescriptor::parse(&xml);
            assert_eq!(parsed.is_ok(), ok, "{subquery_table}: {parsed:?}");
        }
    }

    #[test]
    fn invalid_attribute_values_are_rejected() {
        let bad_rate = PAPER_DESCRIPTOR.replace("rate=\"100\"", "rate=\"fast\"");
        assert!(VirtualSensorDescriptor::parse(&bad_rate).is_err());
        let bad_sampling = PAPER_DESCRIPTOR.replace("sampling-rate=\"1\"", "sampling-rate=\"2\"");
        assert!(VirtualSensorDescriptor::parse(&bad_sampling).is_err());
        let bad_window = PAPER_DESCRIPTOR.replace("storage-size=\"1h\"", "storage-size=\"soon\"");
        assert!(VirtualSensorDescriptor::parse(&bad_window).is_err());
        let bad_type = PAPER_DESCRIPTOR.replace("type=\"integer\"", "type=\"quaternion\"");
        assert!(VirtualSensorDescriptor::parse(&bad_type).is_err());
    }

    #[test]
    fn life_cycle_element_is_refused() {
        let with_pool = PAPER_DESCRIPTOR.replace(
            "<output-structure>",
            "<life-cycle pool-size=\"10\" />\n  <output-structure>",
        );
        let err = VirtualSensorDescriptor::parse(&with_pool).unwrap_err();
        assert_eq!(err.category(), "descriptor");
        assert!(err.to_string().contains("<life-cycle>"), "{err}");
    }

    #[test]
    fn duplicate_aliases_and_reserved_names_are_rejected() {
        let d = VirtualSensorDescriptor::builder("x")
            .unwrap()
            .output_field("a", DataType::Integer)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from s")
                    .with_source(StreamSourceSpec::new(
                        "s",
                        AddressSpec::new("mote"),
                        "select * from WRAPPER",
                    ))
                    .with_source(StreamSourceSpec::new(
                        "S",
                        AddressSpec::new("mote"),
                        "select * from WRAPPER",
                    )),
            )
            .build();
        assert!(d.unwrap_err().to_string().contains("duplicate"));

        let d = VirtualSensorDescriptor::builder("x")
            .unwrap()
            .output_field("a", DataType::Integer)
            .unwrap()
            .input_stream(
                InputStreamSpec::new("main", "select * from wrapper").with_source(
                    StreamSourceSpec::new(
                        "wrapper",
                        AddressSpec::new("mote"),
                        "select * from WRAPPER",
                    ),
                ),
            )
            .build();
        assert!(d.unwrap_err().to_string().contains("reserved"));
    }

    #[test]
    fn defaults_are_applied() {
        let minimal = r#"<virtual-sensor name="min">
          <output-structure><field name="v" type="double"/></output-structure>
          <input-stream name="i">
            <stream-source alias="s">
              <address wrapper="mote"/>
            </stream-source>
            <query>select * from s</query>
          </input-stream>
        </virtual-sensor>"#;
        let d = VirtualSensorDescriptor::parse(minimal).unwrap();
        assert_eq!(d.priority, 10);
        assert!(!d.storage.permanent);
        let src = &d.input_streams[0].sources[0];
        assert_eq!(src.window, WindowSpec::LatestOnly);
        assert_eq!(src.sampling_rate, 1.0);
        assert_eq!(src.disconnect_buffer, DEFAULT_DISCONNECT_BUFFER);
        assert_eq!(src.query, "select * from WRAPPER");
        assert_eq!(d.input_streams[0].rate_limit, None);
    }

    #[test]
    fn multi_source_join_descriptor() {
        let xml = r#"<virtual-sensor name="rfid-camera-join">
          <output-structure>
            <field name="tag" type="varchar"/>
            <field name="image" type="binary"/>
          </output-structure>
          <input-stream name="main">
            <stream-source alias="rfid" storage-size="1">
              <address wrapper="rfid"/>
              <query>select tag from WRAPPER</query>
            </stream-source>
            <stream-source alias="cam" storage-size="1">
              <address wrapper="camera"/>
              <query>select image from WRAPPER</query>
            </stream-source>
            <query>select rfid.tag, cam.image from rfid, cam</query>
          </input-stream>
        </virtual-sensor>"#;
        let d = VirtualSensorDescriptor::parse(xml).unwrap();
        assert_eq!(d.input_streams[0].sources.len(), 2);
        assert_eq!(d.required_wrappers(), vec!["rfid", "camera"]);
    }
}
