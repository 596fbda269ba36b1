//! The catalogue of built-in atomic data types.
//!
//! Two layers need a way from a *name for* a data type to a fresh, empty
//! instance of it: the write-ahead log records an object registration as
//! `(name, type_name)` — never the object's state — and recovery rebuilds
//! the object from the type name before replaying the committed
//! operations; the wire protocol's `Register` request carries a one-byte
//! tag. Both go through [`AdtType`]. [`crate::AbstractObject`] is not in
//! the catalogue: it carries a runtime conflict table no name captures, so
//! a database with a log attached refuses to register one.

use crate::{
    AdtObject, AdtSpec, Counter, FifoQueue, Page, SemanticObject, Set, Stack, TableObject,
};

/// One of the built-in table-driven data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdtType {
    /// [`Counter`].
    Counter,
    /// [`Page`].
    Page,
    /// [`FifoQueue`].
    FifoQueue,
    /// [`Set`].
    Set,
    /// [`Stack`].
    Stack,
    /// [`TableObject`].
    Table,
}

impl AdtType {
    /// Every catalogued type.
    pub const ALL: [AdtType; 6] = [
        AdtType::Counter,
        AdtType::Page,
        AdtType::FifoQueue,
        AdtType::Set,
        AdtType::Stack,
        AdtType::Table,
    ];

    /// The type's [`AdtSpec::TYPE_NAME`] — what
    /// [`SemanticObject::type_name`] reports and the log records.
    pub fn name(self) -> &'static str {
        match self {
            AdtType::Counter => Counter::TYPE_NAME,
            AdtType::Page => Page::TYPE_NAME,
            AdtType::FifoQueue => FifoQueue::TYPE_NAME,
            AdtType::Set => Set::TYPE_NAME,
            AdtType::Stack => Stack::TYPE_NAME,
            AdtType::Table => TableObject::TYPE_NAME,
        }
    }

    /// The catalogued type with this [`Self::name`], or `None` for a type
    /// the catalogue cannot rebuild (e.g. `"abstract"`).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.name() == name)
    }

    /// A fresh, empty, type-erased instance.
    pub fn instantiate(self) -> Box<dyn SemanticObject> {
        match self {
            AdtType::Counter => Box::new(AdtObject::new(Counter::new())),
            AdtType::Page => Box::new(AdtObject::new(Page::new())),
            AdtType::FifoQueue => Box::new(AdtObject::new(FifoQueue::new())),
            AdtType::Set => Box::new(AdtObject::new(Set::new())),
            AdtType::Stack => Box::new(AdtObject::new(Stack::new())),
            AdtType::Table => Box::new(AdtObject::new(TableObject::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_instantiates_to_its_own_empty_state() {
        for adt in AdtType::ALL {
            assert_eq!(AdtType::from_name(adt.name()), Some(adt));
            let obj = adt.instantiate();
            assert_eq!(obj.type_name(), adt.name());
            // A fresh instance must equal another fresh instance: recovery
            // relies on `instantiate` producing the canonical empty state.
            assert!(obj.state_eq(adt.instantiate().as_ref()));
        }
    }

    #[test]
    fn unknown_and_abstract_names_are_refused() {
        assert_eq!(AdtType::from_name("abstract"), None);
        assert_eq!(AdtType::from_name("no-such-type"), None);
    }
}
