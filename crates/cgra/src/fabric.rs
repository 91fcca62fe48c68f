//! CGRA fabric model (paper Section 2, Fig. 1).
//!
//! A grid of PE and memory tiles plus a top row of I/O tiles. Every tile
//! carries a switch box with five 16-bit and five 1-bit routing tracks per
//! direction; PE tiles add connection boxes for each PE input. Memory
//! tiles hold the two-bank SRAMs the applications stream through.

use serde::{Deserialize, Serialize};

/// Kind of a fabric tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileKind {
    /// Processing-element tile (PE core + register file + CBs + SB).
    Pe,
    /// Memory tile (two 2 KB SRAM banks + SB).
    Mem,
    /// I/O tile on the array boundary.
    Io,
}

/// Fabric construction parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricConfig {
    /// Array columns (paper: 32).
    pub width: usize,
    /// Array rows of PE/MEM tiles (paper: 16), plus one I/O row on top.
    pub height: usize,
    /// Every n-th column is a memory column (AHA-style).
    pub mem_column_stride: usize,
    /// 16-bit routing tracks per direction per switch box (paper: 5).
    pub word_tracks: usize,
    /// 1-bit routing tracks per direction.
    pub bit_tracks: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            width: 32,
            height: 16,
            mem_column_stride: 5,
            word_tracks: 5,
            bit_tracks: 5,
        }
    }
}

/// Identifier of a tile (row-major; row 0 is the I/O row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TileId(pub u32);

/// The instantiated fabric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    /// Construction parameters.
    pub config: FabricConfig,
    tiles: Vec<TileKind>,
}

impl Fabric {
    /// Builds a fabric from a configuration.
    ///
    /// # Panics
    /// Panics on zero dimensions.
    pub fn new(config: FabricConfig) -> Self {
        assert!(config.width > 0 && config.height > 0, "empty fabric");
        let mut tiles = Vec::with_capacity(config.width * (config.height + 1));
        for _ in 0..config.width {
            tiles.push(TileKind::Io);
        }
        for _row in 0..config.height {
            for col in 0..config.width {
                let is_mem = config.mem_column_stride > 0
                    && col % config.mem_column_stride == config.mem_column_stride - 1;
                tiles.push(if is_mem { TileKind::Mem } else { TileKind::Pe });
            }
        }
        Fabric { config, tiles }
    }

    /// Total number of tiles (including the I/O row).
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the fabric has no tiles.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Tile kind.
    pub fn kind(&self, t: TileId) -> TileKind {
        self.tiles[t.0 as usize]
    }

    /// The (row, col) coordinates of a tile.
    pub fn coords(&self, t: TileId) -> (usize, usize) {
        let idx = t.0 as usize;
        (idx / self.config.width, idx % self.config.width)
    }

    /// The tile at (row, col).
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn at(&self, row: usize, col: usize) -> TileId {
        assert!(row <= self.config.height && col < self.config.width);
        TileId((row * self.config.width + col) as u32)
    }

    /// All tiles of a kind.
    pub fn tiles_of(&self, kind: TileKind) -> Vec<TileId> {
        (0..self.tiles.len() as u32)
            .map(TileId)
            .filter(|&t| self.kind(t) == kind)
            .collect()
    }

    /// Orthogonal neighbours of a tile.
    pub fn neighbours(&self, t: TileId) -> Vec<TileId> {
        let (r, c) = self.coords(t);
        let mut out = Vec::with_capacity(4);
        if r > 0 {
            out.push(self.at(r - 1, c));
        }
        if r < self.config.height {
            out.push(self.at(r + 1, c));
        }
        if c > 0 {
            out.push(self.at(r, c - 1));
        }
        if c + 1 < self.config.width {
            out.push(self.at(r, c + 1));
        }
        out
    }

    /// Manhattan distance between two tiles.
    pub fn distance(&self, a: TileId, b: TileId) -> usize {
        let (ra, ca) = self.coords(a);
        let (rb, cb) = self.coords(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }

    /// Directed link id between adjacent tiles (used for routing
    /// capacity). Links are indexed `from * len + to`.
    pub fn link(&self, from: TileId, to: TileId) -> usize {
        from.0 as usize * self.len() + to.0 as usize
    }

    /// Dense id of the directed link from `from` to its orthogonal
    /// neighbour `to`: `from * 4 + d`, with `d` in [`Fabric::neighbours`]
    /// order (up, down, left, right). `None` when the tiles are not
    /// neighbours on this fabric. Ids run below [`Fabric::edge_ids`]; the
    /// ids of border tiles' missing sides are never used.
    pub(crate) fn edge(&self, from: TileId, to: TileId) -> Option<usize> {
        let (f, t, w) = (from.0 as usize, to.0 as usize, self.config.width);
        if f >= self.len() || t >= self.len() {
            return None;
        }
        let d = if t + w == f {
            0
        } else if f + w == t {
            1
        } else if t + 1 == f && f % w != 0 {
            2
        } else if f + 1 == t && t % w != 0 {
            3
        } else {
            return None;
        };
        Some(f * 4 + d)
    }

    /// Number of dense link ids: four per tile.
    pub(crate) fn edge_ids(&self) -> usize {
        self.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fabric_matches_paper_dimensions() {
        let f = Fabric::new(FabricConfig::default());
        assert_eq!(f.config.width, 32);
        assert_eq!(f.config.height, 16);
        // 32 IO tiles + 32x16 array
        assert_eq!(f.len(), 32 * 17);
        assert_eq!(f.tiles_of(TileKind::Io).len(), 32);
    }

    #[test]
    fn mem_columns_follow_stride() {
        let f = Fabric::new(FabricConfig::default());
        let mems = f.tiles_of(TileKind::Mem);
        // columns 4, 9, 14, 19, 24, 29 → 6 columns × 16 rows
        assert_eq!(mems.len(), 6 * 16);
        for m in mems {
            let (r, c) = f.coords(m);
            assert!(r >= 1);
            assert_eq!(c % 5, 4);
        }
    }

    #[test]
    fn pe_capacity_fits_the_paper_workloads() {
        let f = Fabric::new(FabricConfig::default());
        // unsharp needs 303 PEs in Table 3
        assert!(f.tiles_of(TileKind::Pe).len() >= 303);
    }

    #[test]
    fn neighbours_and_distance() {
        let f = Fabric::new(FabricConfig::default());
        let t = f.at(3, 5);
        let n = f.neighbours(t);
        assert_eq!(n.len(), 4);
        for x in n {
            assert_eq!(f.distance(t, x), 1);
        }
        let corner = f.at(0, 0);
        assert_eq!(f.neighbours(corner).len(), 2);
    }

    #[test]
    fn coords_round_trip() {
        let f = Fabric::new(FabricConfig::default());
        for idx in [0u32, 31, 32, 100, (32 * 17 - 1) as u32] {
            let (r, c) = f.coords(TileId(idx));
            assert_eq!(f.at(r, c), TileId(idx));
        }
    }
}
