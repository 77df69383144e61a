#include "sim/config.hh"

#include <cstdlib>

#include "common/assert.hh"

namespace parbs {

void
ApplyCheckEnvironment(SystemConfig& config)
{
    const char* check = std::getenv("PARBS_CHECK");
    if (check != nullptr && check[0] != '\0' && check[0] != '0') {
        config.controller.protocol_check = true;
    }
}

void
SystemConfig::Validate() const
{
    if (num_cores == 0) {
        PARBS_FATAL("system: num_cores must be nonzero");
    }
    if (cpu_to_dram_ratio == 0) {
        PARBS_FATAL("system: cpu_to_dram_ratio must be nonzero");
    }
    timing.Validate();
    geometry.Validate();
    controller.Validate();
    core.Validate();
    observability.Validate();
}

SystemConfig
SystemConfig::Baseline(std::uint32_t cores)
{
    if (cores == 0) {
        PARBS_FATAL("baseline requires at least one core");
    }
    // "DRAM channels scaled with cores: 1, 2, 4 parallel lock-step channels
    // for 4, 8, 16 cores" — generalized to cores/4, saturating at the
    // geometry maximum of 16 channels (128+ cores then scale by ranks).
    std::uint32_t channels = cores >= 4 ? cores / 4 : 1;
    if (channels > 16) {
        channels = 16;
    }
    return Baseline(cores, channels);
}

SystemConfig
SystemConfig::Baseline(std::uint32_t cores, std::uint32_t channels)
{
    if (cores == 0) {
        PARBS_FATAL("baseline requires at least one core");
    }
    if (channels == 0 || channels > 16 ||
        (channels & (channels - 1)) != 0) {
        PARBS_FATAL("baseline channels must be a power of two in 1..16");
    }
    SystemConfig config;
    config.num_cores = cores;
    config.geometry.channels = channels;
    // Keep the paper's one-bank-group-per-4-cores capacity ratio: once the
    // channel count stops absorbing it, add ranks per channel instead.
    const std::uint32_t groups = cores >= 4 ? cores / 4 : 1;
    config.geometry.ranks_per_channel =
        groups > channels ? groups / channels : 1;
    return config;
}

} // namespace parbs
