#ifndef RUMBA_COMMON_FILE_H_
#define RUMBA_COMMON_FILE_H_

/**
 * @file
 * The one whole-file writer: every dump, CSV table, PGM image and
 * artifact file goes through WriteFile, so each of them reports a
 * failed write (a full disk, a missing directory) to its caller.
 */

#include <string>
#include <string_view>

namespace rumba {

/**
 * Create or truncate @p path and write @p body. False when the open
 * fails, the write is short, or the close fails. Uses plain system
 * calls, so the signal flush may call it.
 */
bool WriteFile(const std::string& path, std::string_view body);

}  // namespace rumba

#endif  // RUMBA_COMMON_FILE_H_
