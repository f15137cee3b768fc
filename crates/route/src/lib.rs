//! Droplet routing on DMF electrode grids.
//!
//! Droplets move one electrode per routing step, orthogonally, and must
//! respect the classic fluidic constraints so independent droplets never
//! merge by accident:
//!
//! * **static**: two droplets are never within each other's 8-neighborhood
//!   at the same step;
//! * **dynamic**: a droplet never moves into the 8-neighborhood of another
//!   droplet's *previous* position (no swap/chase artifacts).
//!
//! Two planners are provided:
//!
//! * [`shortest_path`] — A* for a single droplet among static obstacles;
//!   this is what the streaming engine uses for its serialized transport
//!   phases (droplet-transportation cost in electrodes, as in the paper's
//!   Fig. 5 matrix);
//! * [`route_concurrent`] — prioritised space-time A* with a reservation
//!   table for simultaneous droplet motion, including wait moves.
//!
//! # Examples
//!
//! ```
//! use dmf_chip::Coord;
//! use dmf_route::{shortest_path, Grid};
//!
//! let grid = Grid::new(8, 8);
//! let path = shortest_path(&grid, Coord::new(0, 0), Coord::new(5, 3), &Default::default())
//!     .expect("open grid always routes");
//! assert_eq!(path.len(), 9); // 8 hops + origin
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod astar;
mod concurrent;
mod error;
mod grid;

pub use astar::{actuations, shortest_path};
pub use concurrent::{
    route_concurrent, route_concurrent_pinned, search_horizon, RouteRequest, TimedPath,
};
pub use error::RouteError;
pub use grid::Grid;
