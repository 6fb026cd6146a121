#include "common/image.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/file.h"
#include "common/logging.h"

namespace rumba {

GrayImage::GrayImage(size_t width, size_t height, double fill)
    : width_(width), height_(height), data_(width * height, fill)
{
}

double&
GrayImage::At(size_t x, size_t y)
{
    RUMBA_CHECK(x < width_ && y < height_);
    return data_[y * width_ + x];
}

double
GrayImage::At(size_t x, size_t y) const
{
    RUMBA_CHECK(x < width_ && y < height_);
    return data_[y * width_ + x];
}

double
GrayImage::AtClamped(long x, long y) const
{
    const long cx = std::clamp(x, 0l, static_cast<long>(width_) - 1);
    const long cy = std::clamp(y, 0l, static_cast<long>(height_) - 1);
    return data_[static_cast<size_t>(cy) * width_ +
                 static_cast<size_t>(cx)];
}

void
GrayImage::Clamp()
{
    for (auto& p : data_)
        p = std::clamp(p, 0.0, 1.0);
}

double
GrayImage::MeanIntensity() const
{
    if (data_.empty())
        return 0.0;
    double sum = 0.0;
    for (double p : data_)
        sum += p;
    return sum / static_cast<double>(data_.size());
}

double
GrayImage::MeanAbsDiff(const GrayImage& other) const
{
    RUMBA_CHECK(width_ == other.width_ && height_ == other.height_);
    if (data_.empty())
        return 0.0;
    double sum = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        sum += std::fabs(data_[i] - other.data_[i]);
    return sum / static_cast<double>(data_.size());
}

bool
GrayImage::WritePgm(const std::string& path) const
{
    std::string body = "P5\n" + std::to_string(width_) + " " +
                       std::to_string(height_) + "\n255\n";
    body.reserve(body.size() + data_.size());
    for (const double pixel : data_) {
        const double v = std::clamp(pixel, 0.0, 1.0);
        body += static_cast<char>(std::lround(v * 255.0));
    }
    return WriteFile(path, body);
}

bool
GrayImage::ReadPgm(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string magic;
    in >> magic;
    if (magic != "P5")
        return false;
    // Skip comments.
    auto next_token = [&in]() -> long {
        for (;;) {
            int c = in.peek();
            if (c == '#') {
                std::string line;
                std::getline(in, line);
            } else if (std::isspace(c)) {
                in.get();
            } else {
                break;
            }
        }
        long v = -1;
        in >> v;
        return v;
    };
    const long w = next_token();
    const long h = next_token();
    const long maxval = next_token();
    if (w <= 0 || h <= 0 || maxval != 255)
        return false;
    in.get();  // single whitespace after the header
    std::vector<unsigned char> bytes(static_cast<size_t>(w * h));
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in)
        return false;
    width_ = static_cast<size_t>(w);
    height_ = static_cast<size_t>(h);
    data_.resize(bytes.size());
    for (size_t i = 0; i < bytes.size(); ++i)
        data_[i] = static_cast<double>(bytes[i]) / 255.0;
    return true;
}

}  // namespace rumba
