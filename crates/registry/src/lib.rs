//! A process-wide, name-keyed registry of trait objects — the one
//! extension point behind every "pick an implementation by name" surface.
//!
//! The planning pipeline selects its base mixing algorithm and its forest
//! scheduler by name: the CLI (`--algo KEY`, `--scheduler KEY`), the serve
//! protocol and the benchmark exhibits all resolve a wire key to an
//! [`Id`] — a `Copy` handle carrying the key, a display label and a
//! `&'static` reference to the object itself. An id derefs to its object,
//! so dispatch through it is a plain vtable call; the [`Registry`] is only
//! consulted to *resolve names* and to *list* what is available.
//!
//! Rust has no generic statics, so each kind of object gets its own
//! `static`, built by the `const` [`Registry::new`] from a kind name (used
//! in error messages) and a seed slice:
//!
//! ```
//! use dmf_registry::{Entry, Id, Registry};
//!
//! trait Greeter {
//!     fn greet(&self) -> &'static str;
//! }
//!
//! struct Hello;
//!
//! impl Greeter for Hello {
//!     fn greet(&self) -> &'static str {
//!         "hello"
//!     }
//! }
//!
//! static GREETERS: Registry<dyn Greeter + Send + Sync> = Registry::new(
//!     "greeter",
//!     &[Entry { id: Id::new("hello", "Hello", &Hello), description: "says hello", aliases: &["hi"] }],
//! );
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let id = GREETERS.resolve("HI")?;
//! assert_eq!((id.key(), id.greet()), ("hello", "hello"));
//! let err = GREETERS.resolve("bye").unwrap_err();
//! assert_eq!(err.to_string(), "unknown greeter \"bye\" (registered: hello)");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A registered object: stable wire key, display label and the object.
///
/// Equality and hashing use the key **only** — a registry enforces key
/// uniqueness, so equal keys imply the same object. This keeps ids
/// process-stable (a key string hashes the same in every process), which
/// content-addressed caches keyed on an id rely on.
pub struct Id<T: ?Sized + 'static> {
    key: &'static str,
    label: &'static str,
    value: &'static T,
}

impl<T: ?Sized> Id<T> {
    /// Creates an id. `key` should be short, lowercase and stable — it is
    /// the wire name used on the command line and in the serve protocol.
    pub const fn new(key: &'static str, label: &'static str, value: &'static T) -> Self {
        Id { key, label, value }
    }

    /// The stable wire key (`"mm"`, `"srs"`, …).
    pub fn key(self) -> &'static str {
        self.key
    }

    /// The display label (`"MM"`, `"SRS"`, …) used in reports and tables.
    pub fn label(self) -> &'static str {
        self.label
    }
}

impl<T: ?Sized> Deref for Id<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
    }
}

impl<T: ?Sized> Clone for Id<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> Copy for Id<T> {}

impl<T: ?Sized> PartialEq for Id<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<T: ?Sized> Eq for Id<T> {}

impl<T: ?Sized> Hash for Id<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl<T: ?Sized> fmt::Debug for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Id").field(&self.key).finish()
    }
}

impl<T: ?Sized> fmt::Display for Id<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label)
    }
}

/// One registry row: the id, a one-line description for listings, and
/// accepted lookup aliases (always matched case-insensitively, alongside
/// the key and the label).
pub struct Entry<T: ?Sized + 'static> {
    /// The id.
    pub id: Id<T>,
    /// One-line description shown by the CLI's `--list-*` flags.
    pub description: &'static str,
    /// Extra accepted names (e.g. `"minmix"` for `"mm"`).
    pub aliases: &'static [&'static str],
}

impl<T: ?Sized> Entry<T> {
    /// Every name the entry answers to: key, label, then the aliases.
    fn names(&self) -> impl Iterator<Item = &'static str> {
        let aliases = self.aliases;
        [self.id.key, self.id.label].into_iter().chain(aliases.iter().copied())
    }
}

impl<T: ?Sized> Clone for Entry<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> Copy for Entry<T> {}

impl<T: ?Sized> fmt::Debug for Entry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entry")
            .field("id", &self.id)
            .field("description", &self.description)
            .field("aliases", &self.aliases)
            .finish()
    }
}

/// A name did not resolve to any registered object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNameError {
    /// What the registry holds (`"mixing algorithm"`, `"scheduler"`).
    pub kind: &'static str,
    /// The name that failed to resolve.
    pub name: String,
    /// The keys registered at the time of the lookup, in registration
    /// order.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {} {:?} (registered: {})", self.kind, self.name, self.known.join(", "))
    }
}

impl std::error::Error for UnknownNameError {}

/// An object with a clashing key, label or alias is already registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateNameError {
    /// What the registry holds (`"mixing algorithm"`, `"scheduler"`).
    pub kind: &'static str,
    /// The already-registered name the new entry clashes with.
    pub name: String,
}

impl fmt::Display for DuplicateNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?} is already registered", self.kind, self.name)
    }
}

impl std::error::Error for DuplicateNameError {}

/// A process-wide registry of `T` objects, seeded at compile time and
/// open to runtime registration (see the crate docs).
pub struct Registry<T: ?Sized + 'static> {
    kind: &'static str,
    seed: &'static [Entry<T>],
    store: OnceLock<RwLock<Vec<Entry<T>>>>,
}

impl<T: ?Sized> Registry<T> {
    /// A registry of `kind` objects (`"mixing algorithm"`), holding
    /// `seed` until something registers.
    pub const fn new(kind: &'static str, seed: &'static [Entry<T>]) -> Self {
        Registry { kind, seed, store: OnceLock::new() }
    }

    /// What the registry holds, as used in error messages.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The compile-time seed entries, without anything registered at
    /// runtime.
    pub fn seeded(&self) -> &'static [Entry<T>] {
        self.seed
    }

    fn store(&self) -> &RwLock<Vec<Entry<T>>> {
        self.store.get_or_init(|| RwLock::new(self.seed.to_vec()))
    }

    // A panic while holding the lock cannot leave the Vec half-updated
    // (`register` pushes last), so a poisoned lock is still consistent.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Entry<T>>> {
        self.store().read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Entry<T>>> {
        self.store().write().unwrap_or_else(PoisonError::into_inner)
    }

    /// All registered entries, in registration order (the seed first).
    pub fn entries(&self) -> Vec<Entry<T>> {
        self.read().clone()
    }

    /// Resolves `name` against keys, labels and aliases,
    /// case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNameError`] (listing the registered keys) when
    /// nothing matches.
    pub fn resolve(&self, name: &str) -> Result<Id<T>, UnknownNameError> {
        let entries = self.read();
        entries
            .iter()
            .find(|entry| entry.names().any(|n| n.eq_ignore_ascii_case(name)))
            .map(|entry| entry.id)
            .ok_or_else(|| UnknownNameError {
                kind: self.kind,
                name: name.to_owned(),
                known: entries.iter().map(|entry| entry.id.key).collect(),
            })
    }

    /// Registers a new entry.
    ///
    /// The entry's key, label and aliases must not clash (case-insensitively)
    /// with any already-registered name. Objects built at runtime can
    /// obtain the required `&'static` reference with `Box::leak`.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateNameError`] on a name clash; the registry is left
    /// unchanged.
    pub fn register(&self, entry: Entry<T>) -> Result<(), DuplicateNameError> {
        let mut entries = self.write();
        for existing in entries.iter() {
            if let Some(name) =
                existing.names().find(|n| entry.names().any(|new| new.eq_ignore_ascii_case(n)))
            {
                return Err(DuplicateNameError { kind: self.kind, name: name.to_owned() });
            }
        }
        entries.push(entry);
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    trait Shape {
        fn sides(&self) -> u32;
    }

    struct Triangle;
    struct Square;

    impl Shape for Triangle {
        fn sides(&self) -> u32 {
            3
        }
    }

    impl Shape for Square {
        fn sides(&self) -> u32 {
            4
        }
    }

    type ShapeId = Id<dyn Shape + Send + Sync>;

    const TRIANGLE: ShapeId = Id::new("tri", "Triangle", &Triangle);
    const SQUARE: ShapeId = Id::new("sq", "Square", &Square);

    const SEED: &[Entry<dyn Shape + Send + Sync>] = &[
        Entry { id: TRIANGLE, description: "three sides", aliases: &["trigon"] },
        Entry { id: SQUARE, description: "four sides", aliases: &[] },
    ];

    #[test]
    fn seeds_resolve_by_key_label_and_alias_case_insensitively() {
        static SHAPES: Registry<dyn Shape + Send + Sync> = Registry::new("shape", SEED);
        for (name, expected) in
            [("tri", TRIANGLE), ("TRIANGLE", TRIANGLE), ("Trigon", TRIANGLE), ("SQ", SQUARE)]
        {
            assert_eq!(SHAPES.resolve(name).unwrap(), expected, "{name}");
        }
        assert_eq!(SHAPES.resolve("square").unwrap().sides(), 4);
    }

    #[test]
    fn unknown_names_list_the_registered_keys_under_the_kind() {
        static SHAPES: Registry<dyn Shape + Send + Sync> = Registry::new("shape", SEED);
        let err = SHAPES.resolve("circle").unwrap_err();
        assert_eq!((err.kind, err.name.as_str()), ("shape", "circle"));
        assert_eq!(err.known, ["tri", "sq"]);
        assert_eq!(err.to_string(), "unknown shape \"circle\" (registered: tri, sq)");
    }

    #[test]
    fn registration_appends_and_clashes_are_rejected_unchanged() {
        static SHAPES: Registry<dyn Shape + Send + Sync> = Registry::new("shape", SEED);
        let clash =
            Entry { id: ShapeId::new("TRIGON", "Tri2", &Triangle), description: "", aliases: &[] };
        let err = SHAPES.register(clash).unwrap_err();
        assert_eq!(err.to_string(), "shape \"trigon\" is already registered");
        assert_eq!(SHAPES.entries().len(), 2);

        let pentagon = ShapeId::new("pent", "Pentagon", &Square);
        SHAPES.register(Entry { id: pentagon, description: "", aliases: &[] }).unwrap();
        let keys: Vec<&str> = SHAPES.entries().iter().map(|e| e.id.key()).collect();
        assert_eq!(keys, ["tri", "sq", "pent"]);
        assert_eq!(SHAPES.resolve("PENT").unwrap(), pentagon);
        assert_eq!(SHAPES.seeded().len(), 2, "the seed does not grow");
    }

    #[test]
    fn equality_and_hash_follow_the_key_alone() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |id: ShapeId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        let relabelled: ShapeId = Id::new("tri", "Other", &Square);
        assert_eq!(relabelled, TRIANGLE);
        assert_eq!(hash(relabelled), hash(TRIANGLE));
        assert_ne!(TRIANGLE, SQUARE);
        assert_eq!(format!("{TRIANGLE} {TRIANGLE:?}"), "Triangle Id(\"tri\")");
    }
}
