package hw

import (
	"errors"
	"fmt"
	"math"
)

// Energy is the unit-energy table the evaluator multiplies traffic and work
// against. All values are picojoules.
type Energy struct {
	DRAMPerByte float64 // DRAM read/write energy per byte
	GBufPerByte float64 // GBUF access energy per byte
	L0PerByte   float64 // core-private L0 access energy per byte
	MACOp       float64 // one arithmetic op on the PE array (MAC = 2 ops)
	VecOp       float64 // one vector-unit op
	StaticPerNS float64 // leakage + clock tree per nanosecond, whole chip
}

// DefaultEnergy is a TSMC-12nm-class INT8 energy table. Absolute values are
// representative, relative ordering is what the experiments depend on.
func DefaultEnergy() Energy {
	return Energy{
		DRAMPerByte: 8.0,
		GBufPerByte: 0.6,
		L0PerByte:   0.12,
		MACOp:       0.04,
		VecOp:       0.08,
		StaticPerNS: 0.0, // kept explicit so DSE can enable it
	}
}

// Config is one accelerator instance.
type Config struct {
	Name string

	// Cores is the number of computing cores sharing the GBUF.
	Cores int
	// PEsPerCore is the number of MAC units in one core's PE array,
	// arranged as ArrayRows x ArrayCols (input-channel x output-channel,
	// the KC-parallel organization of TPU/DaVinci-class designs).
	ArrayRows, ArrayCols int
	// VecLanesPerCore is the vector unit width (ops per cycle per core).
	VecLanesPerCore int

	// FreqGHz is the core clock in GHz (cycles per nanosecond).
	FreqGHz float64

	// DRAMBandwidth is in bytes per nanosecond (== GB/s).
	DRAMBandwidth float64
	// GBufBytes is the shared global buffer capacity.
	GBufBytes int64
	// GBufBandwidth is the aggregate GBUF port bandwidth, bytes/ns.
	GBufBandwidth float64
	// L0Bytes is each core's private buffer capacity (per class: the
	// scheduler treats WL0 == AL0 == OL0 == L0Bytes for simplicity).
	L0Bytes int64

	// TileOverheadCycles is the fixed per-tile cost (descriptor decode,
	// pipeline fill/drain, synchronization) that penalizes very fine
	// tiling.
	TileOverheadCycles int64

	Energy Energy
}

// Validate rejects physically meaningless configurations.
func (c *Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return errors.New("hw: cores must be positive")
	case c.ArrayRows <= 0 || c.ArrayCols <= 0:
		return errors.New("hw: PE array dims must be positive")
	case c.FreqGHz <= 0:
		return errors.New("hw: frequency must be positive")
	case c.DRAMBandwidth <= 0:
		return errors.New("hw: DRAM bandwidth must be positive")
	case c.GBufBytes <= 0:
		return errors.New("hw: GBUF must be positive")
	case c.GBufBandwidth <= 0:
		return errors.New("hw: GBUF bandwidth must be positive")
	case c.L0Bytes <= 0:
		return errors.New("hw: L0 must be positive")
	case c.VecLanesPerCore <= 0:
		return errors.New("hw: vector lanes must be positive")
	}
	return nil
}

// MACsPerCore is the per-core MAC count.
func (c *Config) MACsPerCore() int { return c.ArrayRows * c.ArrayCols }

// PeakOpsPerNS is the whole-chip peak arithmetic rate in ops per nanosecond
// (1 MAC = 2 ops), i.e. peak TOPS.
func (c *Config) PeakOpsPerNS() float64 {
	return 2 * float64(c.Cores*c.MACsPerCore()) * c.FreqGHz
}

// PeakTOPS is the headline peak rate in tera-ops/second.
func (c *Config) PeakTOPS() float64 { return c.PeakOpsPerNS() / 1000 }

// CyclesToNS converts core cycles to nanoseconds.
func (c *Config) CyclesToNS(cycles float64) float64 { return cycles / c.FreqGHz }

func (c *Config) String() string {
	return fmt.Sprintf("%s: %d cores x %dx%d PEs @ %.1fGHz = %.1f TOPS, GBUF %.0f MB, DRAM %.0f GB/s",
		c.Name, c.Cores, c.ArrayRows, c.ArrayCols, c.FreqGHz, c.PeakTOPS(),
		float64(c.GBufBytes)/(1<<20), c.DRAMBandwidth)
}

// Edge is the paper's default 16 TOPS edge platform: 8 MB GBUF, 16 GB/s
// LPDDR-class DRAM (Sec. VI-A, chosen from the Fig. 7 DSE sweet spot).
func Edge() Config {
	return Config{
		Name:               "edge",
		Cores:              8,
		ArrayRows:          32,
		ArrayCols:          32,
		VecLanesPerCore:    128,
		FreqGHz:            1.0,
		DRAMBandwidth:      16,
		GBufBytes:          8 << 20,
		GBufBandwidth:      256,
		L0Bytes:            64 << 10,
		TileOverheadCycles: 500,
		Energy:             DefaultEnergy(),
	}
}

// Cloud is the paper's 128 TOPS cloud platform: 32 MB GBUF, 128 GB/s DRAM.
func Cloud() Config {
	return Config{
		Name:               "cloud",
		Cores:              16,
		ArrayRows:          64,
		ArrayCols:          64,
		VecLanesPerCore:    512,
		FreqGHz:            1.0,
		DRAMBandwidth:      128,
		GBufBytes:          32 << 20,
		GBufBandwidth:      1024,
		L0Bytes:            256 << 10,
		TileOverheadCycles: 500,
		Energy:             DefaultEnergy(),
	}
}

// WithDRAM returns a copy with a different DRAM bandwidth (GB/s). Used by the
// Fig. 7 design-space exploration.
func (c Config) WithDRAM(gbps float64) Config {
	c.DRAMBandwidth = gbps
	c.Name = fmt.Sprintf("%s-d%g", c.Name, gbps)
	return c
}

// MaxGBufMB is the largest GBUF capacity in MiB whose byte count
// (MiB << 20) fits an int64; a larger override wraps negative.
const MaxGBufMB int64 = math.MaxInt64 >> 20

// WithGBuf returns a copy with a different GBUF capacity in bytes.
func (c Config) WithGBuf(bytes int64) Config {
	c.GBufBytes = bytes
	c.Name = fmt.Sprintf("%s-b%dMB", c.Name, bytes>>20)
	return c
}
