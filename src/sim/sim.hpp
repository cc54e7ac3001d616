/// \file sim.hpp
/// \brief Umbrella header for the mcps_sim discrete-event kernel library.

#pragma once

#include "event_arena.hpp"  // IWYU pragma: export
#include "rng.hpp"         // IWYU pragma: export
#include "simulation.hpp"  // IWYU pragma: export
#include "stats.hpp"       // IWYU pragma: export
#include "table.hpp"       // IWYU pragma: export
#include "time.hpp"        // IWYU pragma: export
#include "trace.hpp"       // IWYU pragma: export
