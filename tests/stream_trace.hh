/**
 * @file
 * Test helper shared by the trace tests: encode records the only way
 * the simulator writes a trace file — through a file WriteTraceSink
 * and its background writer — and return the bytes that reached disk.
 */

#ifndef LADDER_TESTS_STREAM_TRACE_HH
#define LADDER_TESTS_STREAM_TRACE_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ctrl/trace_sink.hh"

namespace ladder
{

/**
 * Stream @p records into a fresh file under the gtest TempDir and
 * read it back. The file name carries the pid so test binaries that
 * ctest runs in parallel never share one.
 */
inline std::string
streamTrace(const std::vector<CtrlTraceRecord> &records,
            std::size_t chunkRecords, bool attribution = false)
{
    static unsigned serial = 0;
    const std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("ladder_stream_trace_" + std::to_string(::getpid()) + "_" +
         std::to_string(serial++));
    {
        WriteTraceSink sink(path.string(), chunkRecords, attribution);
        for (const CtrlTraceRecord &r : records)
            sink.record(r);
        sink.finish();
    }
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    is.close();
    std::filesystem::remove(path);
    return os.str();
}

} // namespace ladder

#endif // LADDER_TESTS_STREAM_TRACE_HH
