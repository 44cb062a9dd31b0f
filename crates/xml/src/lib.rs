//! # gsn-xml
//!
//! XML handling and the virtual sensor deployment descriptor model.
//!
//! GSN's headline feature is deployment "without any programming effort just by providing
//! a simple XML configuration file" (paper, Section 6).  This crate provides the three
//! layers that make that work:
//!
//! * [`parser`] / [`dom`] / [`writer`] — a small dependency-free XML parser, document
//!   model and serialiser covering the descriptor subset of XML.
//! * [`descriptor`] — the typed [`VirtualSensorDescriptor`], its validation rules
//!   (including SQL parsing of every embedded query at deployment time) and a builder API
//!   for programmatic deployment.
//!
//! See the module documentation of [`descriptor`] for the full descriptor grammar.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod descriptor;
pub mod dom;
pub mod parser;
pub mod writer;

pub use descriptor::{
    AddressSpec, DescriptorBuilder, InputStreamSpec, StorageBackendChoice, StorageConfig,
    StreamSourceSpec, VirtualSensorDescriptor,
};
pub use dom::{XmlElement, XmlNode};
pub use parser::parse_document;
pub use writer::{write_document, write_element};
