/**
 * @file
 * Request/response types exchanged between the cache hierarchy and the
 * memory controller.
 */

#ifndef LADDER_MEM_REQUEST_HH
#define LADDER_MEM_REQUEST_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/inline_function.hh"
#include "common/types.hh"

namespace ladder
{

/** Why a read transaction exists (paper §3.3: read-type flag). */
enum class ReadKind : unsigned char
{
    Data = 0,     //!< demand read on behalf of the processor
    Metadata = 1, //!< LRS-metadata line fill
    StaleBlock = 2, //!< stale-memory-block read (LADDER-Basic)
};

/**
 * Completion callback for data reads: payload plus completion tick.
 * Inline storage fits a capture of `this` plus a few scalars, or one
 * LineData plus a pointer.
 */
using ReadCallback = InlineFunction<void(const LineData &, Tick), 80>;

} // namespace ladder

#endif // LADDER_MEM_REQUEST_HH
