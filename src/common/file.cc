#include "common/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace rumba {

bool
WriteFile(const std::string& path, std::string_view body)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0666);
    if (fd < 0)
        return false;
    size_t written = 0;
    while (written < body.size()) {
        const ssize_t n = ::write(fd, body.data() + written,
                                  body.size() - written);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        written += static_cast<size_t>(n);
    }
    return ::close(fd) == 0 && written == body.size();
}

}  // namespace rumba
