#include "predict/predictor.h"

#include <optional>
#include <sstream>

#include "common/logging.h"
#include "predict/ema.h"
#include "predict/evp.h"
#include "predict/linear.h"
#include "predict/tree.h"

namespace rumba::predict {

namespace {

template <typename T>
std::unique_ptr<ErrorPredictor>
Boxed(std::optional<T> parsed)
{
    if (!parsed.has_value())
        return nullptr;
    return std::make_unique<T>(*std::move(parsed));
}

}  // namespace

std::unique_ptr<ErrorPredictor>
DeserializePredictor(const std::string& blob)
{
    auto predictor = TryDeserializePredictor(blob);
    if (predictor == nullptr)
        Fatal("malformed or unknown predictor blob");
    return predictor;
}

std::unique_ptr<ErrorPredictor>
TryDeserializePredictor(const std::string& blob)
{
    std::istringstream in(blob);
    std::string tag;
    in >> tag;
    if (tag == "linear")
        return Boxed(LinearErrorPredictor::TryDeserialize(blob));
    if (tag == "tree")
        return Boxed(TreeErrorPredictor::TryDeserialize(blob));
    if (tag == "ema")
        return Boxed(EmaDetector::TryDeserialize(blob));
    if (tag == "evp")
        return Boxed(ValuePredictionError::TryDeserialize(blob));
    return nullptr;
}

}  // namespace rumba::predict
