//! NoC configuration (the knobs of Table 1).

/// Most virtual channels per port: the router keeps per-port VC bitmasks in
/// a `u32`.
pub const MAX_VCS: usize = 32;

/// Most ports per router (four mesh directions plus the concentration): the
/// allocator keeps per-router port bitmasks in a `u64`.
pub const MAX_PORTS: usize = 64;

/// Why a [`NocConfig`] is structurally unsound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The mesh has zero width or height.
    EmptyMesh,
    /// No node is attached to a router.
    ZeroConcentration,
    /// No virtual channel per port.
    NoVirtualChannels,
    /// VC buffers hold no flit.
    ZeroVcBuffer,
    /// Flits are zero bits wide.
    ZeroFlitWidth,
    /// More nodes than 16-bit node ids can name.
    TooManyNodes(usize),
    /// More virtual channels per port than [`MAX_VCS`].
    TooManyVcs(usize),
    /// More ports per router than [`MAX_PORTS`].
    TooManyPorts(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyMesh => write!(f, "mesh dimensions must be positive"),
            ConfigError::ZeroConcentration => write!(f, "concentration must be positive"),
            ConfigError::NoVirtualChannels => {
                write!(f, "at least one virtual channel is required")
            }
            ConfigError::ZeroVcBuffer => write!(f, "VC buffers must hold at least one flit"),
            ConfigError::ZeroFlitWidth => write!(f, "flit width must be positive"),
            ConfigError::TooManyNodes(n) => write!(f, "{n} nodes, but node ids are 16-bit"),
            ConfigError::TooManyVcs(n) => {
                write!(
                    f,
                    "{n} virtual channels per port, at most {MAX_VCS} supported"
                )
            }
            ConfigError::TooManyPorts(n) => write!(
                f,
                "{n} ports per router (4 + concentration), at most {MAX_PORTS} supported"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of the simulated network.
///
/// The default reproduces Table 1: a 4×4 concentrated 2D mesh (32 nodes, two
/// per router) of three-stage routers at 2 GHz, four virtual channels with
/// four-flit buffers, 64-bit flits, wormhole switching and XY routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh width in routers.
    pub width: usize,
    /// Mesh height in routers.
    pub height: usize,
    /// Nodes (NIs) attached to each router.
    pub concentration: usize,
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Buffer depth per virtual channel, in flits.
    pub vc_buffer: usize,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Overlap compression latency with NI queueing time (§4.3's first
    /// latency-hiding optimization).
    pub hide_compression: bool,
    /// Overlap the header flit's VC arbitration with compression (§4.3's
    /// second optimization), shaving one exposed cycle.
    pub va_overlap: bool,
    /// Ship dictionary notifications as real single-flit control packets
    /// instead of an instantaneous side channel.
    pub notify_in_band: bool,
}

impl NocConfig {
    /// The paper's Table 1 network.
    pub fn paper_4x4_cmesh() -> Self {
        NocConfig {
            width: 4,
            height: 4,
            concentration: 2,
            vcs: 4,
            vc_buffer: 4,
            flit_bits: 64,
            hide_compression: true,
            va_overlap: true,
            notify_in_band: false,
        }
    }

    /// A small 3×3 mesh (the running example of Figure 7).
    pub fn mesh_3x3() -> Self {
        NocConfig {
            width: 3,
            height: 3,
            concentration: 1,
            ..NocConfig::paper_4x4_cmesh()
        }
    }

    /// The 8×8 mesh used for the full-system runs (§5.4).
    pub fn mesh_8x8() -> Self {
        NocConfig {
            width: 8,
            height: 8,
            concentration: 1,
            ..NocConfig::paper_4x4_cmesh()
        }
    }

    /// An arbitrary concentrated mesh with the paper's router parameters
    /// (Table 1 VCs, buffers and flit width) — the scale-out topologies the
    /// ROADMAP targets are instances of this.
    pub fn cmesh(width: usize, height: usize, concentration: usize) -> Self {
        NocConfig {
            width,
            height,
            concentration,
            ..NocConfig::paper_4x4_cmesh()
        }
    }

    /// A datacenter-scale 16×16 concentrated mesh (512 nodes), the smallest
    /// of the ROADMAP's scale-out topologies.
    pub fn cmesh_16x16() -> Self {
        NocConfig::cmesh(16, 16, 2)
    }

    /// Total number of routers.
    pub fn num_routers(&self) -> usize {
        self.width * self.height
    }

    /// Total number of nodes (NIs).
    pub fn num_nodes(&self) -> usize {
        self.num_routers() * self.concentration
    }

    /// Number of payload flits a data payload of `bits` occupies.
    pub fn payload_flits(&self, bits: u32) -> u32 {
        bits.div_ceil(self.flit_bits).max(1)
    }

    /// Total flits of a data packet carrying `bits` of payload (one header
    /// flit plus the payload flits; internal fragmentation in the tail flit
    /// is real, per §5.2.1).
    pub fn data_packet_flits(&self, bits: u32) -> u32 {
        1 + self.payload_flits(bits)
    }

    /// Validates structural soundness.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 || self.height == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if self.concentration == 0 {
            return Err(ConfigError::ZeroConcentration);
        }
        if self.vcs == 0 {
            return Err(ConfigError::NoVirtualChannels);
        }
        if self.vc_buffer == 0 {
            return Err(ConfigError::ZeroVcBuffer);
        }
        if self.flit_bits == 0 {
            return Err(ConfigError::ZeroFlitWidth);
        }
        if self.vcs > MAX_VCS {
            return Err(ConfigError::TooManyVcs(self.vcs));
        }
        let ports = 4 + self.concentration;
        if ports > MAX_PORTS {
            return Err(ConfigError::TooManyPorts(ports));
        }
        if self.num_nodes() > u16::MAX as usize {
            return Err(ConfigError::TooManyNodes(self.num_nodes()));
        }
        Ok(())
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig::paper_4x4_cmesh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_counts() {
        let c = NocConfig::paper_4x4_cmesh();
        assert_eq!(c.num_routers(), 16);
        assert_eq!(c.num_nodes(), 32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn packet_flit_arithmetic() {
        let c = NocConfig::default();
        // Uncompressed 64 B block: 512 bits -> 8 payload + 1 header.
        assert_eq!(c.data_packet_flits(512), 9);
        // 100 bits round up to 2 flits + header.
        assert_eq!(c.data_packet_flits(100), 3);
        // Even an empty payload needs one flit.
        assert_eq!(c.data_packet_flits(0), 2);
        assert_eq!(c.payload_flits(64), 1);
        assert_eq!(c.payload_flits(65), 2);
    }

    #[test]
    fn validation_rejects_unsound_configs() {
        for (f, want) in [
            (
                NocConfig {
                    width: 0,
                    ..Default::default()
                },
                ConfigError::EmptyMesh,
            ),
            (
                NocConfig {
                    concentration: 0,
                    ..Default::default()
                },
                ConfigError::ZeroConcentration,
            ),
            (
                NocConfig {
                    vcs: 0,
                    ..Default::default()
                },
                ConfigError::NoVirtualChannels,
            ),
            (
                NocConfig {
                    vc_buffer: 0,
                    ..Default::default()
                },
                ConfigError::ZeroVcBuffer,
            ),
            (
                NocConfig {
                    flit_bits: 0,
                    ..Default::default()
                },
                ConfigError::ZeroFlitWidth,
            ),
            (
                NocConfig {
                    vcs: MAX_VCS + 1,
                    ..Default::default()
                },
                ConfigError::TooManyVcs(33),
            ),
            (
                NocConfig {
                    concentration: 61,
                    ..Default::default()
                },
                ConfigError::TooManyPorts(65),
            ),
            (
                NocConfig::cmesh(256, 256, 1),
                ConfigError::TooManyNodes(65_536),
            ),
        ] {
            assert_eq!(f.validate(), Err(want));
            assert!(!want.to_string().is_empty());
        }
        // The limits themselves are valid.
        let widest = NocConfig {
            vcs: MAX_VCS,
            concentration: MAX_PORTS - 4,
            ..Default::default()
        };
        assert_eq!(widest.validate(), Ok(()));
    }

    #[test]
    fn presets() {
        assert_eq!(NocConfig::mesh_3x3().num_nodes(), 9);
        assert_eq!(NocConfig::mesh_8x8().num_nodes(), 64);
        assert_eq!(NocConfig::cmesh_16x16().num_nodes(), 512);
        assert!(NocConfig::cmesh_16x16().validate().is_ok());
        assert_eq!(NocConfig::cmesh(32, 32, 2).num_nodes(), 2048);
    }
}
