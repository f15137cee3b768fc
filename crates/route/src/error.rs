use dmf_chip::Coord;
use std::error::Error;
use std::fmt;

/// Error raised by droplet routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// A droplet could not reach its destination within the search horizon.
    Unroutable {
        /// Index of the failing request.
        index: usize,
        /// Source electrode.
        from: Coord,
        /// Destination electrode.
        to: Coord,
    },
    /// A timed path with no positions was supplied — a droplet must occupy
    /// at least its source electrode (see [`crate::TimedPath::new`]).
    EmptyPath,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable { index, from, to } => {
                write!(f, "droplet {index} cannot be routed from {from} to {to}")
            }
            RouteError::EmptyPath => {
                write!(f, "a timed path must contain at least its source electrode")
            }
        }
    }
}

impl Error for RouteError {}
