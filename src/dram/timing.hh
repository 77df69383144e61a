/**
 * @file
 * DRAM device timing and geometry parameters.
 *
 * All timing values are expressed in DRAM command-clock cycles.  The default
 * values model the paper's baseline device: Micron DDR2-800
 * (MT47H128M8HQ-25), tCK = 2.5 ns, with the Table 2 values
 * tCL = tRCD = tRP = 15 ns (6 cycles) and BL/2 = 10 ns (4 cycles), plus the
 * datasheet values for the constraints Table 2 leaves implicit
 * (tRAS, tWR, tWTR, tRTP, tRRD, tFAW, tCCD, tRFC, tREFI).
 */

#ifndef PARBS_DRAM_TIMING_HH
#define PARBS_DRAM_TIMING_HH

#include <cstdint>

#include "common/types.hh"

namespace parbs::dram {

/** Device timing constraints, in DRAM command-clock cycles. */
struct TimingParams {
    /** CAS latency: column command to first data beat. */
    DramCycle tCL = 6;
    /** RAS-to-CAS delay: ACTIVATE to first column command. */
    DramCycle tRCD = 6;
    /** Row precharge time: PRECHARGE to next ACTIVATE. */
    DramCycle tRP = 6;
    /** Row active time: ACTIVATE to PRECHARGE (minimum). */
    DramCycle tRAS = 18;
    /** Write recovery: end of write burst to PRECHARGE. */
    DramCycle tWR = 6;
    /** Write-to-read turnaround: end of write burst to READ command (rank). */
    DramCycle tWTR = 3;
    /** Read-to-precharge delay. */
    DramCycle tRTP = 3;
    /** ACTIVATE-to-ACTIVATE delay, different banks, same rank. */
    DramCycle tRRD = 3;
    /** Four-activate window, per rank. */
    DramCycle tFAW = 15;
    /** Column-to-column command delay (burst gap on the data bus). */
    DramCycle tCCD = 2;
    /** Data burst duration on the bus (BL/2 for a burst of 8 on DDR). */
    DramCycle tBURST = 4;
    /** Write latency: WRITE command to first data beat (DDR2: tCL - 1). */
    DramCycle tCWD = 5;
    /** Refresh cycle time: REFRESH to next ACTIVATE, all banks. */
    DramCycle tRFC = 51;
    /** Average refresh interval (refresh period / 8192 rows).  0 turns
     *  refresh off for the device, the controller and the protocol
     *  checker alike. */
    DramCycle tREFI = 3120;

    /** ACTIVATE-to-ACTIVATE on the same bank (row cycle). */
    DramCycle tRC() const { return tRAS + tRP; }

    /**
     * Uncontended bank-access latency of a row-conflict access
     * (PRE + ACT + column command to first data): the paper's "highest bank
     * access latency" tRP + tRCD + tCL.
     */
    DramCycle ConflictLatency() const { return tRP + tRCD + tCL; }

    /** Uncontended latency with a closed row: tRCD + tCL. */
    DramCycle ClosedLatency() const { return tRCD + tCL; }

    /** Uncontended row-hit latency: tCL. */
    DramCycle HitLatency() const { return tCL; }

    /** @throws ConfigError if the parameter combination is nonsensical. */
    void Validate() const;
};

/** Module organization (per memory channel unless noted). */
struct Geometry {
    std::uint32_t channels = 1;
    std::uint32_t ranks_per_channel = 1;
    std::uint32_t banks_per_rank = 8;
    std::uint32_t rows_per_bank = 16384;
    /** Row-buffer size in bytes (2 KB in the baseline). */
    std::uint32_t row_bytes = 2048;
    /** Cache-line / DRAM burst size in bytes. */
    std::uint32_t line_bytes = 64;

    /** Cache lines per row. */
    std::uint32_t LinesPerRow() const { return row_bytes / line_bytes; }

    /** Total banks across the whole memory system. */
    std::uint32_t
    TotalBanks() const
    {
        return channels * ranks_per_channel * banks_per_rank;
    }

    /** Total addressable bytes across the whole memory system. */
    std::uint64_t
    CapacityBytes() const
    {
        return static_cast<std::uint64_t>(TotalBanks()) * rows_per_bank *
               row_bytes;
    }

    /** @throws ConfigError if fields are zero, inconsistent, or outside
     *  the supported ranges (the address mapping packs all dimensions into
     *  a 64-bit physical address). */
    void Validate() const;
};

} // namespace parbs::dram

#endif // PARBS_DRAM_TIMING_HH
