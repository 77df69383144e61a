#include "dram/bank.hh"

#include <algorithm>

#include "common/assert.hh"

namespace parbs::dram {

Bank::Bank(const TimingParams& timing) : timing_(timing)
{
}

void
Bank::Issue(const Command& cmd, DramCycle now)
{
    PARBS_ASSERT(CanIssue(cmd.type, now),
                 "bank-level timing violation on issue");
    switch (cmd.type) {
      case CommandType::kActivate:
        PARBS_ASSERT(open_row_ == kNoRow,
                     "ACTIVATE issued to a bank with an open row");
        open_row_ = cmd.row;
        open_since_ = now;
        row_gen_ += 1;
        activations_ += 1;
        // Column commands must respect tRCD; the earliest precharge must
        // respect tRAS; the next activate to this bank respects tRC.
        next_read_ = std::max(next_read_, now + timing_.tRCD);
        next_write_ = std::max(next_write_, now + timing_.tRCD);
        next_precharge_ = std::max(next_precharge_, now + timing_.tRAS);
        next_activate_ = std::max(next_activate_, now + timing_.tRC());
        break;

      case CommandType::kPrecharge:
        PARBS_ASSERT(open_row_ != kNoRow,
                     "PRECHARGE issued to an already-closed bank");
        open_row_ = kNoRow;
        open_since_ = kNeverCycle;
        row_gen_ += 1;
        next_activate_ = std::max(next_activate_, now + timing_.tRP);
        break;

      case CommandType::kRead:
        PARBS_ASSERT(open_row_ == cmd.row,
                     "READ issued to a bank without the matching open row");
        // tRTP: read-to-precharge; tCCD: column-to-column.
        next_precharge_ = std::max(next_precharge_, now + timing_.tRTP);
        next_read_ = std::max(next_read_, now + timing_.tCCD);
        next_write_ = std::max(next_write_, now + timing_.tCCD);
        break;

      case CommandType::kWrite:
        PARBS_ASSERT(open_row_ == cmd.row,
                     "WRITE issued to a bank without the matching open row");
        // Write recovery: the burst ends at now + tCWD + tBURST; precharge
        // must wait a further tWR after that.
        next_precharge_ = std::max(
            next_precharge_, now + timing_.tCWD + timing_.tBURST +
                                 timing_.tWR);
        next_read_ = std::max(next_read_, now + timing_.tCCD);
        next_write_ = std::max(next_write_, now + timing_.tCCD);
        break;

      case CommandType::kRefresh:
        PARBS_ASSERT(false, "refresh is issued at rank level, not bank level");
        break;
    }
}

void
Bank::BlockUntil(DramCycle until)
{
    PARBS_ASSERT(open_row_ == kNoRow, "cannot block a bank with an open row");
    next_activate_ = std::max(next_activate_, until);
    next_precharge_ = std::max(next_precharge_, until);
    next_read_ = std::max(next_read_, until);
    next_write_ = std::max(next_write_, until);
}

} // namespace parbs::dram
